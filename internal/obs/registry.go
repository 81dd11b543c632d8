package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// Registry is a per-run metrics store: named counters, gauges, and
// virtual-time histograms.
//
// Hot series are resolved once, at wiring time, into handles (Counter,
// Hist) that hold their state densely: an Add or Observe through a handle
// does no name lookup, and with windows on it indexes the current window by
// the handle's id. The string methods (Add, Observe, …At, ObserveExemplar*)
// resolve the handle on every call; they suit cold paths such as end-of-run
// aggregates. A series appears in snapshots and windows only once something
// was recorded into it, so resolving a handle that is never used changes no
// output.
//
// A registry from NewRegistry is safe for concurrent use: every method and
// every handle operation takes its mutex, so one registry may observe a run
// mid-flight or aggregate across concurrently running simulations — though
// per-cell registries (experiments.Options.CellMetrics) are the
// deterministic way to do that. A registry from NewLocalRegistry takes no
// lock; it belongs to one simulation, which runs on one goroutine. A run
// that creates its own registry (core.Config.Metrics nil) uses that form.
//
// Histograms are fixed-memory: exact count/sum/min/max/mean via
// internal/stats.Online plus log-linear (HDR-style) bucket counts held in
// key order — see hist.go. Quantiles are read from the buckets with a
// relative error of at most 1/(2·histSub) (<2%), clamped to the exact
// observed range, so a long-lived registry absorbing millions of
// observations (an open-loop serving run's per-query latencies) stays
// bounded by the octaves its value range touches, not by the observation
// count. With windows on (EnableWindows) a histogram is kept in its
// windows alone, and Snapshot folds them into the whole-run stat.
type Registry struct {
	// mu is nil for a single-goroutine registry (NewLocalRegistry).
	mu         *sync.Mutex
	counters   []*Counter // by Counter.id
	hists      []*Hist    // by Hist.id
	counterIdx map[string]*Counter
	histIdx    map[string]*Hist
	gauges     map[string]float64
	// win, when non-nil, additionally folds every mutation into tumbling
	// virtual-time windows (EnableWindows; see window.go).
	win *winState
}

// Counter is a handle on one named counter series (Registry.Counter). A nil
// *Counter ignores every Add, so a layer wired without a registry can keep
// nil handles.
type Counter struct {
	r    *Registry
	id   int
	name string
	v    int64
	used bool // something was added (even 0): the series exists
}

// Hist is a handle on one named histogram series (Registry.Hist). A nil
// *Hist ignores every observation. exemplars is populated only via
// ObserveExemplar: up to histExemplars IDs per bucket, retained by maximum
// value (ties broken by smaller ID) — deterministic, no sampling.
type Hist struct {
	r         *Registry
	id        int
	name      string
	online    stats.Online
	b         buckets
	exemplars map[int32][]Exemplar
}

// Exemplar links one retained observation back to its source (a query or
// request ID), so a histogram bucket can be traced to concrete per-query
// Perfetto tracks.
type Exemplar struct {
	ID int64   `json:"id"`
	V  float64 `json:"v"`
}

// histExemplars bounds the exemplars retained per histogram bucket.
const histExemplars = 4

// addExemplar folds e into a bucket's retained set: sorted by descending
// value then ascending ID, truncated to histExemplars. Insertion order does
// not matter, so merges stay deterministic.
func addExemplar(list []Exemplar, e Exemplar) []Exemplar {
	pos := len(list)
	for i, x := range list {
		if e.V > x.V || (e.V == x.V && e.ID < x.ID) {
			pos = i
			break
		}
	}
	if pos >= histExemplars {
		return list
	}
	list = append(list, Exemplar{})
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	if len(list) > histExemplars {
		list = list[:histExemplars]
	}
	return list
}

// NewRegistry returns an empty registry that is safe for concurrent use.
func NewRegistry() *Registry {
	r := NewLocalRegistry()
	r.mu = new(sync.Mutex)
	return r
}

// NewLocalRegistry returns an empty registry that takes no lock: every
// method and handle must be used from one goroutine at a time, as one
// simulation's layers are.
func NewLocalRegistry() *Registry {
	return &Registry{
		counterIdx: make(map[string]*Counter),
		histIdx:    make(map[string]*Hist),
		gauges:     make(map[string]float64),
	}
}

func (r *Registry) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Registry) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// Counter resolves the named counter to its handle, creating the series on
// first use. Resolving alone records nothing.
func (r *Registry) Counter(name string) *Counter {
	r.lock()
	defer r.unlock()
	return r.counter(name)
}

// Hist resolves the named histogram to its handle, creating the series on
// first use. Resolving alone records nothing.
func (r *Registry) Hist(name string) *Hist {
	r.lock()
	defer r.unlock()
	return r.hist(name)
}

// counter and hist are Counter and Hist for callers holding the lock.
func (r *Registry) counter(name string) *Counter {
	c := r.counterIdx[name]
	if c == nil {
		c = &Counter{r: r, id: len(r.counters), name: name}
		r.counters = append(r.counters, c)
		r.counterIdx[name] = c
	}
	return c
}

func (r *Registry) hist(name string) *Hist {
	h := r.histIdx[name]
	if h == nil {
		h = &Hist{r: r, id: len(r.hists), name: name}
		r.hists = append(r.hists, h)
		r.histIdx[name] = h
	}
	return h
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	// Locked and unlocked in line: Unlock does not fit r.unlock's inlining
	// budget.
	mu := c.r.mu
	if mu != nil {
		mu.Lock()
	}
	c.add(delta, nil)
	if mu != nil {
		mu.Unlock()
	}
}

// add is the shared counter path, for callers holding the lock: at, when
// non-nil, overrides the window clock (event-time backfill).
func (c *Counter) add(delta int64, at *des.Time) {
	c.v += delta
	c.used = true
	if w := c.r.win; w != nil {
		t := w.now()
		if at != nil {
			t = *at
		}
		w.acc(t).counter(c.id, len(c.r.counters)).add(delta)
	}
}

// Observe folds one observation into the histogram.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	mu := h.r.mu
	if mu != nil {
		mu.Lock()
	}
	h.observe(v, nil, nil)
	if mu != nil {
		mu.Unlock()
	}
}

// ObserveTime folds a virtual-time duration into the histogram, in seconds
// — the unit every engine-populated histogram uses.
func (h *Hist) ObserveTime(t des.Time) { h.Observe(t.Seconds()) }

// observe is the shared histogram path, for callers holding the lock: ex,
// when non-nil, retains the observation as a bucket exemplar; at, when
// non-nil, overrides the window clock (event-time backfill). A windowed
// registry records into the window alone; Snapshot folds the windows.
func (h *Hist) observe(v float64, ex *int64, at *des.Time) {
	key := bucketKey(v)
	if w := h.r.win; w != nil {
		t := w.now()
		if at != nil {
			t = *at
		}
		w.acc(t).hist(h.id, len(h.r.hists)).observe(v, key)
	} else {
		h.online.Add(v)
		h.b.inc(key)
	}
	if ex != nil {
		if h.exemplars == nil {
			h.exemplars = make(map[int32][]Exemplar)
		}
		h.exemplars[key] = addExemplar(h.exemplars[key], Exemplar{ID: *ex, V: v})
	}
}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	r.lock()
	r.counter(name).add(delta, nil)
	r.unlock()
}

// Set stores the named gauge's current value.
func (r *Registry) Set(name string, v float64) {
	r.lock()
	r.gauges[name] = v
	if w := r.win; w != nil {
		w.acc(w.now()).set(name, v)
	}
	r.unlock()
}

// Observe folds one observation into the named histogram.
func (r *Registry) Observe(name string, v float64) { r.observeNamed(name, v, nil, nil) }

// observeNamed is the string form of Hist.observe, under one lock.
func (r *Registry) observeNamed(name string, v float64, ex *int64, at *des.Time) {
	r.lock()
	r.hist(name).observe(v, ex, at)
	r.unlock()
}

// ObserveExemplar is Observe plus exemplar retention: the observation's
// bucket deterministically keeps up to histExemplars source IDs by maximum
// value, linking the histogram back to per-query traces.
func (r *Registry) ObserveExemplar(name string, v float64, id int64) {
	r.observeNamed(name, v, &id, nil)
}

// ObserveExemplarAt is ObserveExemplar with an explicit virtual timestamp
// for the window layer.
func (r *Registry) ObserveExemplarAt(name string, v float64, id int64, at des.Time) {
	r.observeNamed(name, v, &id, &at)
}

// ObserveTime folds a virtual-time duration into the named histogram, in
// seconds — the unit every engine-populated histogram uses.
func (r *Registry) ObserveTime(name string, t des.Time) { r.Observe(name, t.Seconds()) }

// HistStat summarizes one histogram: exact count/sum/min/max/mean, the
// precomputed P50/P95/P99, and the log-bucket counts the quantiles were read
// from. Bucket-derived quantiles carry a relative error of at most
// 1/(2·histSub) (<2%) and are clamped to the exact [Min, Max]. Buckets may
// be nil on hand-built or legacy stats; Quantile and Merge then fall back to
// the precomputed fields.
type HistStat struct {
	Count               int64
	Sum, Min, Max, Mean float64
	P50, P95, P99       float64
	Buckets             map[int32]int64 `json:",omitempty"`
	// Exemplars maps bucket key → up to histExemplars retained observations
	// (max value first), present only for series recorded via
	// ObserveExemplar.
	Exemplars map[int32][]Exemplar `json:",omitempty"`
}

// Quantile reads the q-quantile (0 ≤ q ≤ 1) from the bucket counts, clamped
// to the exact observed range. Without buckets it interpolates the
// precomputed anchors (Min, P50, P95, P99, Max) piecewise-linearly — the
// best available estimate for a stat that predates bucket retention.
func (h HistStat) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if len(h.Buckets) > 0 {
		return clamp(bucketQuantile(mapWalk(h.Buckets), h.Count, q), h.Min, h.Max)
	}
	xs := [5]float64{0, 0.5, 0.95, 0.99, 1}
	ys := [5]float64{h.Min, h.P50, h.P95, h.P99, h.Max}
	if q <= 0 {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if q <= xs[i] {
			f := (q - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + f*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// Snapshot is an immutable copy of a registry's state. The zero value is an
// empty snapshot; see Merge for deterministic aggregation.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]HistStat
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.lock()
	defer r.unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Hists:    make(map[string]HistStat, len(r.hists)),
	}
	for _, c := range r.counters {
		if c.used {
			s.Counters[c.name] = c.v
		}
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for _, h := range r.hists {
		var st HistStat
		if r.win != nil {
			st = r.win.histStat(h.id)
		} else if h.online.N() > 0 {
			st = histStat(h.online, &h.b)
		}
		if st.Count == 0 {
			continue
		}
		if len(h.exemplars) > 0 {
			st.Exemplars = make(map[int32][]Exemplar, len(h.exemplars))
			for bk, list := range h.exemplars {
				st.Exemplars[bk] = append([]Exemplar(nil), list...)
			}
		}
		s.Hists[h.name] = st
	}
	return s
}

// histStat assembles one histogram's snapshot: exact moments from the online
// accumulator, quantiles read from the bucket counts in key order.
func histStat(online stats.Online, b *buckets) HistStat {
	h := HistStat{
		Count:   online.N(),
		Sum:     online.Mean() * float64(online.N()),
		Min:     online.Min(),
		Max:     online.Max(),
		Mean:    online.Mean(),
		Buckets: b.toMap(),
	}
	h.P50, h.P95, h.P99 = quantiles3(b.walk, h.Count, h.Min, h.Max)
	return h
}

// Merge folds o into a copy of s and returns it; neither input is modified.
// Counters add; a gauge present in o overwrites s's value; histogram
// count/sum/min/max merge exactly and mean is recomputed. When both sides
// carry bucket counts the buckets are summed and the quantiles re-read from
// the merged buckets — the weighted-quantile merge stays within the bucket
// error bound of the quantiles of the combined stream. When either side
// lacks buckets (hand-built stats) the quantiles degrade to count-weighted
// averages of the inputs' quantiles, as before bucket retention. Merging in
// a fixed order is deterministic, which is how sweeps aggregate per-cell
// metrics while staying bit-identical at any parallelism.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)+len(o.Gauges)),
		Hists:    make(map[string]HistStat, len(s.Hists)+len(o.Hists)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Hists {
		out.Hists[k] = v
	}
	for k, b := range o.Hists {
		a, ok := out.Hists[k]
		if !ok || a.Count == 0 {
			out.Hists[k] = b
			continue
		}
		if b.Count == 0 {
			continue
		}
		m := HistStat{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Min: a.Min, Max: a.Max}
		if b.Min < m.Min {
			m.Min = b.Min
		}
		if b.Max > m.Max {
			m.Max = b.Max
		}
		m.Mean = m.Sum / float64(m.Count)
		if len(a.Buckets) > 0 && len(b.Buckets) > 0 {
			m.Buckets = make(map[int32]int64, len(a.Buckets)+len(b.Buckets))
			for bk, n := range a.Buckets {
				m.Buckets[bk] += n
			}
			for bk, n := range b.Buckets {
				m.Buckets[bk] += n
			}
			m.P50, m.P95, m.P99 = quantiles3(mapWalk(m.Buckets), m.Count, m.Min, m.Max)
		} else {
			wa, wb := float64(a.Count), float64(b.Count)
			m.P50 = (a.P50*wa + b.P50*wb) / (wa + wb)
			m.P95 = (a.P95*wa + b.P95*wb) / (wa + wb)
			m.P99 = (a.P99*wa + b.P99*wb) / (wa + wb)
		}
		if len(a.Exemplars) > 0 || len(b.Exemplars) > 0 {
			m.Exemplars = make(map[int32][]Exemplar, len(a.Exemplars)+len(b.Exemplars))
			for _, side := range []map[int32][]Exemplar{a.Exemplars, b.Exemplars} {
				for bk, list := range side {
					for _, e := range list {
						m.Exemplars[bk] = addExemplar(m.Exemplars[bk], e)
					}
				}
			}
		}
		out.Hists[k] = m
	}
	return out
}

// Empty reports whether the snapshot holds no series at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Hists) == 0
}

// Render formats the snapshot as aligned text, every section sorted by name.
func (s Snapshot) Render() string {
	var b strings.Builder
	section := func(title string, n int) bool {
		if n == 0 {
			return false
		}
		fmt.Fprintf(&b, "%s:\n", title)
		return true
	}
	if section("counters", len(s.Counters)) {
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", k, s.Counters[k])
		}
	}
	if section("gauges", len(s.Gauges)) {
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %g\n", k, s.Gauges[k])
		}
	}
	if section("histograms (n mean p50 p95 p99 max)", len(s.Hists)) {
		for _, k := range sortedKeys(s.Hists) {
			h := s.Hists[k]
			fmt.Fprintf(&b, "  %-36s %d %.6g %.6g %.6g %.6g %.6g\n",
				k, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
