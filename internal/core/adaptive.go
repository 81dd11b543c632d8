package core

import (
	"errors"
	"fmt"

	"s3asim/internal/adapt"
	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/obs"
	"s3asim/internal/romio"
)

// Closed-loop adaptive I/O (DESIGN.md §16). The paper's result is that no
// single write strategy wins everywhere: MW wins tiny results, WW-List wins
// the paper's medium regime, collective writes amortize huge ones. With
// Config.Adaptive set, the master stops committing to one strategy up front
// and instead stamps every flush batch with a strategy arm and a ROMIO hint
// vector chosen by an adapt.Controller at dispatch time, from the predicted
// result volume (an online bytes/length model over completed queries) and the
// observed cost of earlier flush windows — optionally decomposed by
// causal.CriticalPathBetween so the controller's per-arm attribution tells
// *why* an arm was slow, not just that it was.
//
// Protocol under Adaptive: every worker always posts the offset-list receive,
// and the master sends one offsetMsg per worker for EVERY batch — including
// MW batches, whose (empty) message is sent after the master's own write+sync
// and doubles as the batch tracker and, with QuerySync, the barrier trigger.
// Tasks carry their query's strategy (task.Strat); offset lists carry the
// batch's strategy and hints (offsetMsg.Strat/Hints), which the workers route
// through the per-call hinted romio entry points. All of it is gated on
// Config.Adaptive != nil: a nil config runs the original protocol
// byte-for-byte.

// AdaptiveConfig switches a run into closed-loop adaptive I/O.
type AdaptiveConfig struct {
	// Strategies lists the candidate arms in decision order. Empty selects
	// {MW, WWList, WWColl} — one representative of each regime the paper
	// identifies.
	Strategies []Strategy
	// EpochLen is the number of flush-window observations that close one
	// hint-search epoch (default 8).
	EpochLen int
	// Hysteresis is the relative margin a challenger arm must beat the
	// incumbent by before the controller switches (default 0.10).
	Hysteresis float64
	// AcceptMargin is the relative improvement a hint probe epoch must show
	// over the baseline to be accepted (default 0.05).
	AcceptMargin float64
	// Gamma is the cost model's EWMA decay (default 0.3).
	Gamma float64
	// TuneCB and TuneSieve enable the two ROMIO hint hill-climb dimensions:
	// cb_nodes (two-phase aggregator count) and the data-sieving buffer size.
	// Both off freezes the hint search at the configured base hints.
	TuneCB    bool
	TuneSieve bool
	// MaxProbes bounds the number of hint probe epochs (default 16).
	MaxProbes int
}

// arms resolves the configured arm set.
func (a *AdaptiveConfig) arms() []Strategy {
	if len(a.Strategies) == 0 {
		return []Strategy{MW, WWList, WWColl}
	}
	return a.Strategies
}

// validateAdaptive checks the adaptive config against the rest of the run.
func (c *Config) validateAdaptive() error {
	a := c.Adaptive
	if a == nil {
		return nil
	}
	if c.resilient() {
		return errors.New("core: adaptive I/O is incompatible with the resilient protocol")
	}
	if c.QueryGroups > 1 {
		return errors.New("core: adaptive I/O requires a single query group")
	}
	seen := map[Strategy]bool{}
	for _, s := range a.arms() {
		if s < MW || s > WWColl {
			return fmt.Errorf("core: adaptive arm %d is not a strategy", int(s))
		}
		if seen[s] {
			return fmt.Errorf("core: duplicate adaptive arm %s", s)
		}
		seen[s] = true
	}
	if a.EpochLen < 0 || a.MaxProbes < 0 {
		return errors.New("core: adaptive EpochLen/MaxProbes must be non-negative")
	}
	if a.Hysteresis < 0 || a.AcceptMargin < 0 {
		return errors.New("core: adaptive margins must be non-negative")
	}
	if a.Gamma < 0 || a.Gamma > 1 {
		return errors.New("core: adaptive Gamma must be in [0, 1]")
	}
	return nil
}

// indMethodFor resolves the ADIO method for individual writes under strategy
// s — the per-batch variant of indMethod, used to stamp adaptive hint
// vectors.
func (c *Config) indMethodFor(s Strategy) romio.Method {
	if c.OverrideIndMethod {
		return c.IndMethod
	}
	if s == WWPosix {
		return romio.Posix
	}
	return romio.ListIO
}

// slug is the lowercase metric-name form of the strategy.
func (s Strategy) slug() string {
	switch s {
	case MW:
		return "mw"
	case WWPosix:
		return "ww-posix"
	case WWList:
		return "ww-list"
	case WWColl:
		return "ww-coll"
	default:
		return fmt.Sprintf("strategy-%d", int(s))
	}
}

// adaptDecision is one batch's recorded controller decision.
type adaptDecision struct {
	made  bool
	arm   int
	epoch uint32
	strat Strategy
	hints romio.Hints
}

// adaptState is the runtime side of Config.Adaptive (nil otherwise).
type adaptState struct {
	ctrl *adapt.Controller
	pred *adapt.Predictor

	strategies []Strategy // arm index -> strategy
	counters   []string   // arm index -> "adapt.assigned.<slug>" (precomputed: Decide path is allocation-free)
	hasColl    bool

	decisions []adaptDecision // per global batch
	starts    []des.Time      // per global batch: flush initiation time
	writers   []int           // per global batch: expected flush stamps
	stamped   []int           // per global batch: stamps so far
	observed  []bool          // per global batch: fed back to the controller
	lastProc  []string        // per global batch: latest stamping process
	lastEnd   des.Time        // latest observed flush completion (headway base)

	proc string // master process name (obs Point anchor)
	sink obs.Sink
}

// newAdaptState builds the controller and per-batch bookkeeping. Requires a
// single group (enforced by validateAdaptive).
func (rt *runtime) newAdaptState() *adaptState {
	cfg := rt.cfg
	a := cfg.Adaptive
	arms := a.arms()
	// Cold-start size prior from the workload spec's own generative law
	// (search.Generate): an expected count of results per query, each sized
	// MinResultSize + U(0, 3·max(qlen, dbLen) − MinResultSize). Without it
	// the first few batches predict zero bytes and the controller starts on
	// whatever arm is cheapest for an empty flush — a real transient at
	// short query counts.
	wl := &cfg.Workload
	count := float64(wl.MinResults+wl.MaxResults) / 2
	dbl := wl.DBSeqHist.Mean()
	minSz := float64(wl.MinResultSize)
	if minSz < 1 {
		minSz = 1
	}
	sizePrior := func(length int64) int64 {
		m := 3 * float64(length)
		if 3*dbl > m {
			m = 3 * dbl
		}
		sz := minSz
		if m > minSz {
			sz += (m - minSz) / 2
		}
		return int64(count * sz)
	}
	ad := &adaptState{
		strategies: arms,
		pred:       adapt.NewPredictor(a.Gamma, sizePrior),
		proc:       fmt.Sprintf("master%d", rt.groups[0].index),
		sink:       cfg.Sink,
	}
	names := make([]string, len(arms))
	for i, s := range arms {
		names[i] = s.String()
		ad.counters = append(ad.counters, "adapt.assigned."+s.slug())
		if s == WWColl {
			ad.hasColl = true
		}
	}
	ad.ctrl = adapt.New(adapt.Params{
		Arms:         names,
		EpochLen:     a.EpochLen,
		Hysteresis:   a.Hysteresis,
		AcceptMargin: a.AcceptMargin,
		Gamma:        a.Gamma,
		BaseHints:    cfg.hints(),
		MaxCBNodes:   len(rt.groups[0].workers),
		MaxProbes:    a.MaxProbes,
		TuneCB:       a.TuneCB,
		TuneSieve:    a.TuneSieve,
		Prior:        rt.adaptPrior(arms),
	})
	n := len(rt.flushTimes)
	ad.decisions = make([]adaptDecision, n)
	ad.starts = make([]des.Time, n)
	ad.writers = make([]int, n)
	ad.stamped = make([]int, n)
	ad.observed = make([]bool, n)
	ad.lastProc = make([]string, n)
	return ad
}

// adaptPrior builds the controller's ex-ante arm prices from the run's
// configured device models (pvfs request/sync costs, the interconnect, and
// the master's serialization bandwidth). The prior only has to *rank* arms
// for batch sizes no arm has been observed at yet — it replaces the forced
// bootstrap, so an arm it prices clearly worst is never tried, and a wrong
// ranking costs one batch before the first real observation overrides it.
// The returned function is deterministic and allocation-free (it sits on the
// Decide hot path).
func (rt *runtime) adaptPrior(arms []Strategy) func(arm int, predBytes int64) float64 {
	cfg := rt.cfg
	fs, net := cfg.FS, cfg.Net
	w := float64(len(rt.groups[0].workers))
	srv := float64(fs.NumServers)
	if srv < 1 {
		srv = 1
	}
	// Expected result segments per batch, from the workload spec.
	segs := float64(cfg.QueriesPerWrite) * float64(cfg.Workload.MinResults+cfg.Workload.MaxResults) / 2
	if segs < 1 {
		segs = 1
	}
	req := float64(fs.RequestOverhead)
	seg := float64(fs.SegmentOverhead)
	syncB := float64(fs.SyncBase)
	lat := float64(net.Latency)
	strip := float64(fs.StripSize)
	if strip <= 0 {
		strip = 1
	}
	cb := w
	if cfg.CBNodes > 0 && float64(cfg.CBNodes) < cb {
		cb = float64(cfg.CBNodes)
	}
	if cb > srv {
		cb = srv
	}
	planSeg := float64(romio.DefaultHints().TwoPhasePlanPerSeg)
	frags := int64(cfg.Workload.NumFragments)
	if frags < 1 {
		frags = 1
	}
	// div is bytes over bandwidth in des.Time units, treating a non-positive
	// bandwidth as infinite — matching des.BytesOver.
	div := func(b, bw float64) float64 {
		if bw <= 0 {
			return 0
		}
		return b / bw * float64(des.Second)
	}
	return func(arm int, predBytes int64) float64 {
		b := float64(predBytes)
		// spread: how many server queues the batch's strips fan across —
		// a tiny batch lands on one server, a huge one on all of them.
		spread := b/strip + 1
		if spread > srv {
			spread = srv
		}
		service := div(b, fs.ServiceBandwidth*spread) + div(b, fs.SyncBandwidth*spread)
		switch arms[arm] {
		case MW:
			// Master serializes at FormatBandwidth, then one contiguous
			// write and sync. Doubled to match the observation feed, which
			// charges an MW flush its master occupancy on top of its headway
			// (see adaptStamped).
			return 2 * (div(b, cfg.FormatBandwidth) + req + seg + syncB + service)
		case WWPosix:
			// Every result segment is its own request, from w concurrent
			// writers; overheads pile onto the spread's server queues.
			return 2*lat + (segs*(req+seg)+w*syncB)/spread + service
		case WWList:
			// One list request per writer carrying all its segments.
			return 2*lat + (w*req+segs*seg+w*syncB)/spread + service
		case WWColl:
			// Two-phase: a collective round first BARRIERS the whole group —
			// the expected straggler drain is about one task's compute time,
			// a cost the per-request terms completely miss — then pays the
			// per-segment plan cost, redistributes over the interconnect,
			// and cb aggregators issue contiguous writes.
			barrier := float64(cfg.Compute.TaskTime(predBytes/frags, cfg.ComputeSpeed))
			return barrier + segs*planSeg + 4*lat + div(b, net.Bandwidth) +
				(cb*(req+seg+syncB))/spread + service
		default:
			return 1e18
		}
	}
}

// taskStrat resolves the effective strategy of a task: the stamped per-query
// arm under Adaptive, the configured strategy otherwise.
func (rt *runtime) taskStrat(t task) Strategy {
	if rt.ad != nil {
		return t.Strat
	}
	return rt.cfg.Strategy
}

// batchStrat resolves the effective strategy of a flushed batch from its
// offset message.
func (rt *runtime) batchStrat(om offsetMsg) Strategy {
	if rt.ad != nil {
		return om.Strat
	}
	return rt.cfg.Strategy
}

// adaptTaskStrat returns query q's strategy, deciding its batch's arm on
// first use (the master calls this when dispatching a query's first
// fragment; later fragments and batch-mates reuse the decision). Runs on the
// master only, so the decision sequence is identical across worker engines.
func (rt *runtime) adaptTaskStrat(g *group, q int) Strategy {
	ad := rt.ad
	gb := g.batchBase + (q-g.loQ)/rt.cfg.QueriesPerWrite
	d := &ad.decisions[gb]
	if d.made {
		return d.strat
	}
	b := g.batches[gb-g.batchBase]
	var pred int64
	for qq := b.LoQ; qq < b.HiQ; qq++ {
		pred += ad.pred.Predict(rt.wl.Queries[qq].Length)
	}
	dec := ad.ctrl.Decide(pred)
	d.made = true
	d.arm = dec.Arm
	d.epoch = dec.Epoch
	d.strat = ad.strategies[dec.Arm]
	d.hints = dec.Hints
	d.hints.CollWriteMethod = rt.cfg.CollMethod
	d.hints.IndWriteMethod = rt.cfg.indMethodFor(d.strat)
	rt.metrics.Add(ad.counters[dec.Arm], 1)
	if dec.Switched {
		rt.metrics.Add("adapt.switches", 1)
		if ad.sink != nil {
			ad.sink.Point(ad.proc, "adapt.switch", rt.sim.Now())
		}
	}
	return d.strat
}

// adaptFlushStart records a batch flush's start time and how many flush
// stamps (adaptStamped calls) complete it: 1 for the master's MW write, all
// group workers for a collective round, the placement-holding workers for
// individual WW.
func (rt *runtime) adaptFlushStart(gb, writers int) {
	rt.ad.starts[gb] = rt.sim.Now()
	rt.ad.writers[gb] = writers
}

// adaptStamped counts one durable-write stamp for batch gb; the final stamp
// closes the flush window and feeds the observation (cost, bytes, and — on
// causal runs — the window's critical-path attribution) back to the
// controller. Stamps arrive in virtual-time order, so the last stamper is
// the window's critical finisher and anchors the attribution walk.
//
// The observed cost is the flush's HEADWAY, not its latency: the wall-clock
// beyond the later of this flush's start and the previous flush's end. A
// latency window mis-prices arms whose damage is externalized — a collective
// round's window is short (contiguous aggregator writes) while it stalls
// every worker's compute, which surfaces as delayed gathers and
// back-to-back flush completions. Headways tile the steady-state wall
// clock, so minimizing them minimizes what the run actually optimizes.
func (rt *runtime) adaptStamped(gb int, proc string) {
	ad := rt.ad
	ad.stamped[gb]++
	ad.lastProc[gb] = proc
	if ad.stamped[gb] < ad.writers[gb] || ad.observed[gb] {
		return
	}
	ad.observed[gb] = true
	d := &ad.decisions[gb]
	// The observed cost is the flush's HEADWAY beyond the previous flush's
	// end, not its latency: headways tile the steady-state wall clock, so
	// minimizing them minimizes what the run actually optimizes, and a run of
	// same-arm batches charges the arm its true pipeline rate. One known
	// externality still escapes the window — the master-write's occupancy
	// starves task distribution and lands on the FOLLOWING batches — and is
	// charged back explicitly below.
	base := ad.starts[gb]
	if ad.lastEnd > base {
		base = ad.lastEnd
	}
	cost := rt.flushTimes[gb] - base
	if cost < 0 {
		cost = 0
	}
	if d.strat == MW {
		// A master-write flush monopolizes the master for its whole window
		// (format at FormatBandwidth, then the write and sync), deferring
		// both task distribution AND result merging — the paper's central
		// bottleneck, and two stalled pipelines, not one. That starvation
		// surfaces as inflated headways on the FOLLOWING batches (usually
		// billed to whatever arm they ran on), so in mixed sequences MW's own
		// headway under-states its marginal cost and the controller flaps at
		// the MW/WW crossover. Charge the occupancy back to the arm that
		// caused it, once per stalled pipeline.
		cost += 2 * (rt.flushTimes[gb] - ad.starts[gb])
	}
	if rt.flushTimes[gb] > ad.lastEnd {
		ad.lastEnd = rt.flushTimes[gb]
	}
	var att *causal.Attribution
	if c := rt.cfg.Causal; c != nil {
		att = c.CriticalPathBetween(ad.lastProc[gb], ad.starts[gb], rt.flushTimes[gb])
	}
	before := ad.ctrl.EpochID()
	ad.ctrl.Observe(d.arm, rt.groups[0].batches[gb-rt.groups[0].batchBase].Bytes, cost, d.epoch, att)
	if ad.ctrl.EpochID() != before && ad.sink != nil {
		ad.sink.Point(ad.proc, "adapt.epoch", rt.sim.Now())
	}
}

// adaptQueryDone feeds the size predictor with a completed query's actual
// result volume (the master has just merged its last fragment).
func (rt *runtime) adaptQueryDone(q int) {
	if ad := rt.ad; ad != nil {
		ad.pred.Observe(rt.wl.Queries[q].Length, rt.wl.Queries[q].Bytes)
	}
}

// adaptWorkerWrites reports whether any adaptive arm writes from workers
// (the data-sieving overlap carve-out in report()).
func (rt *runtime) adaptWorkerWrites() bool {
	if rt.ad == nil {
		return false
	}
	for _, s := range rt.ad.strategies {
		if s.WorkerWriting() {
			return true
		}
	}
	return false
}

// AdaptiveReport summarizes the controller's run (Report.Adaptive, present
// only with Config.Adaptive).
type AdaptiveReport struct {
	// Arms names the strategy arms; parallel to Assigned/Observed/ArmAttr.
	Arms []string
	// Assigned counts controller decisions per arm (batches, not queries).
	Assigned []int64
	// Observed counts flush windows fed back per arm.
	Observed []int64
	// ArmAttr accumulates each arm's flush-window critical-path breakdown
	// (zero without Config.Causal) — the causal side of every decision.
	ArmAttr []causal.Breakdown
	// Switches counts bucket-incumbent changes; Epochs and ProbeEpochs
	// summarize the hint search, FinalHints its outcome, Converged whether
	// it froze before the run ended.
	Switches    int64
	Epochs      int
	ProbeEpochs int
	Converged   bool
	FinalHints  romio.Hints
	// BatchArms records, per global batch, the decided arm index (-1 for a
	// batch that was never dispatched).
	BatchArms []int
}

// adaptReport snapshots the controller state for the run report.
func (rt *runtime) adaptReport() *AdaptiveReport {
	ad := rt.ad
	rep := &AdaptiveReport{
		Switches:    ad.ctrl.Switches(),
		Epochs:      int(ad.ctrl.EpochID()),
		ProbeEpochs: ad.ctrl.ProbeEpochs(),
		Converged:   ad.ctrl.Converged(),
		FinalHints:  ad.ctrl.BestHints(),
	}
	for a, s := range ad.strategies {
		rep.Arms = append(rep.Arms, s.String())
		rep.Assigned = append(rep.Assigned, ad.ctrl.Assigned(a))
		rep.Observed = append(rep.Observed, ad.ctrl.Observations(a))
		rep.ArmAttr = append(rep.ArmAttr, ad.ctrl.Attr(a))
	}
	for _, d := range ad.decisions {
		if d.made {
			rep.BatchArms = append(rep.BatchArms, d.arm)
		} else {
			rep.BatchArms = append(rep.BatchArms, -1)
		}
	}
	return rep
}
