package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"s3asim/internal/des"
)

// SLO alert engine (DESIGN.md §15): declarative rules evaluated at every
// window boundary of a run's Series, entirely in virtual time. A rule pairs
// a condition (counter rate, histogram quantile, or SLO burn rate) with a
// threshold and a fast lookback window; an optional slow lookback adds
// multiwindow AND semantics — the classic burn-rate pattern where the fast
// window gives detection latency and the slow window suppresses blips.
//
// Rule grammar (one spec string, e.g. for the -slo CLI flag):
//
//	name:rate(counter)>threshold[:opts]       counter rate over the fast window, per second
//	name:p99(hist)>threshold[:opts]           histogram quantile over the fast window (p50, p95, p999, …)
//	name:burn(bad/total)>threshold[:opts]     burn rate: (bad/total) / (1-slo); requires slo=
//
// opts is a comma list of fast=<dur>, slow=<dur> (Go durations, rounded up
// to whole windows; fast defaults to one window, slow defaults to off) and
// slo=<fraction in (0,1)> for burn rules. `<` in place of `>` fires when the
// value drops below the threshold.
//
// Evaluation replays the sealed windows in ascending order once, at the end
// of the run — semantically identical to online boundary evaluation (windows
// are tumbling, so every boundary's inputs are final when it passes), and it
// keeps the hot path free of alert bookkeeping. Firing and resolving edges
// emit alert.fire/alert.resolve points on the "alerts" timeline track and
// firing edges trigger the flight recorder.

// RuleKind selects a rule's condition.
type RuleKind int

const (
	// RuleRate thresholds a counter's per-second rate over the lookback.
	RuleRate RuleKind = iota
	// RuleQuantile thresholds a histogram quantile over the lookback.
	RuleQuantile
	// RuleBurn thresholds an SLO burn rate: the bad/total ratio over the
	// lookback divided by the error budget (1-SLO). Burn 1 consumes the
	// budget exactly; burn 14 is the classic page-worthy fast burn.
	RuleBurn
)

func (k RuleKind) String() string {
	switch k {
	case RuleRate:
		return "rate"
	case RuleQuantile:
		return "quantile"
	case RuleBurn:
		return "burn"
	}
	return fmt.Sprintf("RuleKind(%d)", int(k))
}

// Rule is one declarative alert rule; build with ParseRule or literally.
type Rule struct {
	Name      string
	Kind      RuleKind
	Metric    string  // counter (rate), histogram (quantile), or the "bad" counter (burn)
	Total     string  // burn only: the "total" counter
	Q         float64 // quantile only, in (0, 1)
	SLO       float64 // burn only: availability target in (0, 1)
	Threshold float64
	Below     bool     // fire when value < Threshold instead of >
	Fast      des.Time // fast lookback; 0 = one window
	Slow      des.Time // slow lookback; 0 = single-window semantics
}

// ParseRule parses one rule spec (grammar above).
func ParseRule(spec string) (*Rule, error) {
	fail := func(msg string) (*Rule, error) {
		return nil, fmt.Errorf("obs: rule %q: %s", spec, msg)
	}
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return fail("want name:condition")
	}
	if strings.ContainsAny(name, " \t/\\") {
		return fail("name may not contain spaces or slashes")
	}
	cond, opts, _ := strings.Cut(rest, ":")
	lp := strings.IndexByte(cond, '(')
	rp := strings.IndexByte(cond, ')')
	if lp < 0 || rp < lp {
		return fail("condition wants fn(metric)")
	}
	fn, arg, tail := cond[:lp], cond[lp+1:rp], cond[rp+1:]
	if len(tail) < 2 || (tail[0] != '>' && tail[0] != '<') {
		return fail("condition wants > or < threshold after the metric")
	}
	thr, err := strconv.ParseFloat(tail[1:], 64)
	if err != nil || math.IsNaN(thr) || math.IsInf(thr, 0) {
		return fail("bad threshold")
	}
	r := &Rule{Name: name, Threshold: thr, Below: tail[0] == '<'}
	switch {
	case fn == "rate":
		r.Kind, r.Metric = RuleRate, arg
	case fn == "burn":
		bad, total, ok := strings.Cut(arg, "/")
		if !ok || bad == "" || total == "" {
			return fail("burn wants burn(bad/total)")
		}
		r.Kind, r.Metric, r.Total = RuleBurn, bad, total
	case strings.HasPrefix(fn, "p") && len(fn) > 1:
		digits := fn[1:]
		n, err := strconv.ParseUint(digits, 10, 32)
		if err != nil {
			return fail("quantile wants pNN(hist), e.g. p99 or p999")
		}
		r.Kind, r.Metric = RuleQuantile, arg
		r.Q = float64(n) / math.Pow(10, float64(len(digits)))
		if r.Q <= 0 || r.Q >= 1 {
			return fail("quantile must be in (0, 1)")
		}
	default:
		return fail("unknown condition " + fn + " (want rate, pNN, or burn)")
	}
	if r.Metric == "" {
		return fail("empty metric name")
	}
	if opts != "" {
		for _, kv := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fail("option " + kv + " wants k=v")
			}
			switch k {
			case "fast", "slow":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return fail("bad duration " + kv)
				}
				if k == "fast" {
					r.Fast = des.FromSeconds(d.Seconds())
				} else {
					r.Slow = des.FromSeconds(d.Seconds())
				}
			case "slo":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return fail("bad slo " + v)
				}
				r.SLO = f
			default:
				return fail("unknown option " + k)
			}
		}
	}
	if r.Kind == RuleBurn && (r.SLO <= 0 || r.SLO >= 1) {
		return fail("burn needs slo= in (0, 1)")
	}
	if r.Kind != RuleBurn && r.SLO != 0 {
		return fail("slo= only applies to burn rules")
	}
	return r, nil
}

// ParseRules parses a list of rule specs.
func ParseRules(specs []string) ([]*Rule, error) {
	rules := make([]*Rule, 0, len(specs))
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// String reconstructs the rule's spec form.
func (r *Rule) String() string {
	var cond string
	switch r.Kind {
	case RuleRate:
		cond = "rate(" + r.Metric + ")"
	case RuleQuantile:
		q := strconv.FormatFloat(r.Q, 'f', -1, 64)
		cond = "p" + strings.TrimPrefix(q, "0.") + "(" + r.Metric + ")"
	case RuleBurn:
		cond = "burn(" + r.Metric + "/" + r.Total + ")"
	}
	cmp := ">"
	if r.Below {
		cmp = "<"
	}
	s := fmt.Sprintf("%s:%s%s%g", r.Name, cond, cmp, r.Threshold)
	var opts []string
	if r.Fast > 0 {
		opts = append(opts, "fast="+durString(r.Fast))
	}
	if r.Slow > 0 {
		opts = append(opts, "slow="+durString(r.Slow))
	}
	if r.Kind == RuleBurn {
		opts = append(opts, "slo="+strconv.FormatFloat(r.SLO, 'f', -1, 64))
	}
	if len(opts) > 0 {
		s += ":" + strings.Join(opts, ",")
	}
	return s
}

func durString(t des.Time) string {
	return time.Duration(t.Seconds() * float64(time.Second)).String()
}

// windowsFor converts a lookback duration into a whole window count,
// rounding up; 0 means one window.
func windowsFor(d, width des.Time) int64 {
	if d <= 0 {
		return 1
	}
	n := (int64(d) + int64(width) - 1) / int64(width)
	if n < 1 {
		n = 1
	}
	return n
}

// Alert is one edge in a run's alert timeline: a rule firing or resolving at
// a window boundary.
type Alert struct {
	Rule      string   `json:"rule"`
	Window    int64    `json:"window"` // index of the boundary window
	At        des.Time `json:"at"`     // the boundary: window end
	Fired     bool     `json:"fired"`  // true = fire edge, false = resolve edge
	Value     float64  `json:"value"`  // fast-window value at the boundary
	Slow      float64  `json:"slow"`   // slow-window value (== Value without slow=)
	Threshold float64  `json:"threshold"`
}

// AlertEngine evaluates a rule set against a windowed series.
type AlertEngine struct {
	width des.Time
	rules []*Rule
}

// NewAlertEngine validates the rules against the window width and returns an
// engine.
func NewAlertEngine(width des.Time, rules []*Rule) (*AlertEngine, error) {
	if width <= 0 {
		return nil, fmt.Errorf("obs: alert engine needs a positive window width")
	}
	for _, r := range rules {
		if r == nil || r.Name == "" || r.Metric == "" {
			return nil, fmt.Errorf("obs: alert rule missing name or metric")
		}
	}
	return &AlertEngine{width: width, rules: rules}, nil
}

// value computes one rule's value over the window index range [from, to].
// ok=false means the condition has no data (an empty quantile or burn
// lookback) and cannot fire.
func (r *Rule) value(s *Series, from, to int64) (v float64, ok bool) {
	switch r.Kind {
	case RuleRate:
		return s.Rate(r.Metric, from, to), true
	case RuleQuantile:
		h := s.HistOver(r.Metric, from, to)
		if h.Count == 0 {
			return 0, false
		}
		return clamp(bucketQuantile(mapWalk(h.Buckets), h.Count, r.Q), h.Min, h.Max), true
	case RuleBurn:
		total := s.CounterSum(r.Total, from, to)
		if total == 0 {
			return 0, false
		}
		bad := s.CounterSum(r.Metric, from, to)
		return (float64(bad) / float64(total)) / (1 - r.SLO), true
	}
	return 0, false
}

func (r *Rule) exceeds(v float64) bool {
	if r.Below {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// Evaluate replays the series' window boundaries in ascending order against
// every rule, returning the edge timeline (rules in input order within one
// boundary). Firing edges emit an "alert.fire <name>" point on the "alerts"
// track of sink and trigger the flight recorder; resolve edges emit
// "alert.resolve <name>". sink and flight may be nil.
func (e *AlertEngine) Evaluate(s *Series, sink Sink, flight *FlightRecorder) []Alert {
	if s == nil || len(e.rules) == 0 {
		return nil
	}
	var out []Alert
	firing := make([]bool, len(e.rules))
	for idx := int64(0); idx < int64(len(s.Windows)); idx++ {
		at := s.Windows[idx].End
		for ri, r := range e.rules {
			nFast := windowsFor(r.Fast, e.width)
			fastVal, fastOK := r.value(s, idx-nFast+1, idx)
			slowVal, slowOK := fastVal, fastOK
			if r.Slow > 0 {
				nSlow := windowsFor(r.Slow, e.width)
				slowVal, slowOK = r.value(s, idx-nSlow+1, idx)
			}
			cond := fastOK && slowOK && r.exceeds(fastVal) && r.exceeds(slowVal)
			if cond == firing[ri] {
				continue
			}
			firing[ri] = cond
			a := Alert{
				Rule: r.Name, Window: idx, At: at, Fired: cond,
				Value: fastVal, Slow: slowVal, Threshold: r.Threshold,
			}
			out = append(out, a)
			if cond {
				if sink != nil {
					sink.Point("alerts", fmt.Sprintf("alert.fire %s %.6g", r.Name, fastVal), at)
				}
				if flight != nil {
					flight.Trigger("alert "+r.Name, at)
				}
			} else if sink != nil {
				sink.Point("alerts", "alert.resolve "+r.Name, at)
			}
		}
	}
	return out
}
