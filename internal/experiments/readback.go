package experiments

import (
	"fmt"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// This file is the readback suite (s3abench -suite readback): the verified
// read path under mixed GET/PUT workloads and under chaos. The mixed sweep
// asks how much each write strategy pays when every durable batch is
// immediately read back at a given GET share (s3bench-style verification
// traffic). The chaos suite re-runs the fault plans of the chaos sweep with
// content verification on: a recovery protocol that silently lost, tore, or
// duplicated bytes would surface here as a content mismatch, which
// core.Run turns into a hard error — a clean suite IS the assertion.

// ReadbackOptions scales the mixed GET/PUT readback sweep.
type ReadbackOptions struct {
	// Base is the template configuration; Strategy and Readback are
	// overridden per cell. CaptureData is forced on (content verification
	// needs stored content descriptors).
	Base core.Config
	// Mixes is the x-axis: the GET percentage of the verification workload.
	// 100 is the pure-read pass (post-run verification only); a mix m < 100
	// re-reads each durable batch m/(100-m) times in-run (90 → 9 GETs per
	// PUT, 50 → 1). Every cell also runs the post-run sweep so the whole
	// image is verified regardless of mix.
	Mixes []int
	// Method is the ADIO read method verification reads go through.
	Method romio.Method
	// Collective routes WW-Coll in-run reads through collective read rounds.
	Collective bool
	// Repetitions, Strategies, Parallelism, Progress: as in Options.
	Repetitions int
	Strategies  []core.Strategy
	Parallelism int
	Progress    func(string)
}

// PaperReadbackOptions returns the readback sweep at the paper's evaluation
// scale (64 processes, default workload).
func PaperReadbackOptions() ReadbackOptions {
	return ReadbackOptions{
		Base:        core.DefaultConfig(),
		Mixes:       []int{100, 90, 50},
		Method:      romio.ListIO,
		Repetitions: 1,
	}
}

// QuickReadbackOptions returns a scaled-down readback sweep for tests: the
// QuickOptions workload at 8 processes.
func QuickReadbackOptions() ReadbackOptions {
	q := QuickOptions()
	base := q.Base
	base.Procs = 8
	return ReadbackOptions{
		Base:        base,
		Mixes:       []int{100, 90, 50},
		Method:      romio.ListIO,
		Repetitions: 1,
	}
}

// readbackConfFor maps a GET percentage to the read-path configuration.
func readbackConfFor(get int, method romio.Method, collective bool) (*core.ReadbackConfig, error) {
	if get <= 0 || get > 100 {
		return nil, fmt.Errorf("experiments: GET mix %d%% outside (0, 100]", get)
	}
	rc := &core.ReadbackConfig{Method: method, Collective: collective, PostRun: true}
	if get < 100 {
		rc.InRunReads = get / (100 - get)
		if rc.InRunReads < 1 {
			return nil, fmt.Errorf("experiments: GET mix %d%% is below 50/50 (write-heavier mixes are the write sweeps' job)", get)
		}
	}
	return rc, nil
}

// ReadbackCell is one (strategy, mix) cell. The embedded Cell carries the
// timing aggregates; the readback fields are per-run means over the
// verification counters.
type ReadbackCell struct {
	Cell
	// GetPct is the cell's x: the GET share of the mixed workload.
	GetPct int
	// Reads / Extents are the mean number of verification read operations
	// and extents compared per run; BytesRead is the mean bytes pulled back
	// through the read strategy.
	Reads     float64
	Extents   float64
	BytesRead float64
	// Mismatches is the mean content-hash mismatches per run — always 0 in
	// a completed sweep, because a mismatch fails the run (and the sweep).
	Mismatches float64
	// ReadShare is BytesRead over the run's output bytes: the realized
	// GET amplification (1.0 = the whole image read back once).
	ReadShare float64
	// Slowdown is this cell's mean overall time over the same strategy's
	// pure-read (100%) column — how much the in-run GET traffic stretches
	// the run relative to post-run verification alone.
	Slowdown float64
}

// ReadbackResult is a completed mixed GET/PUT sweep. Cells are keyed by
// CellKey with X = GET percentage and QuerySync = Base.QuerySync.
type ReadbackResult struct {
	Mixes []int
	Sync  bool
	Strat []core.Strategy
	Cells map[CellKey]*ReadbackCell
	// Metrics and Perf: as in SweepResult.
	Metrics obs.Snapshot
	Perf    SweepPerf
}

// Cell returns the cell for (strategy, GET percentage), or nil.
func (rr *ReadbackResult) Cell(s core.Strategy, get int) *ReadbackCell {
	return rr.Cells[CellKey{Strategy: s, QuerySync: rr.Sync, X: float64(get)}]
}

// RunReadbackSweep executes the mixed GET/PUT readback sweep. Deterministic:
// the same options produce bit-identical Cells at any Parallelism.
func RunReadbackSweep(opts ReadbackOptions) (*ReadbackResult, error) {
	if len(opts.Mixes) == 0 {
		opts.Mixes = []int{100, 90, 50}
	}
	o := Options{
		Strategies:  opts.Strategies,
		Repetitions: opts.Repetitions,
		Parallelism: opts.Parallelism,
		Progress:    opts.Progress,
		Base:        opts.Base,
	}
	rr := &ReadbackResult{
		Mixes: opts.Mixes,
		Sync:  opts.Base.QuerySync,
		Strat: o.strategies(),
		Cells: make(map[CellKey]*ReadbackCell),
	}
	var (
		keys []CellKey
		cfgs []core.Config
	)
	for _, s := range rr.Strat {
		for _, get := range opts.Mixes {
			coll := opts.Collective && s == core.WWColl
			rc, err := readbackConfFor(get, opts.Method, coll)
			if err != nil {
				return nil, err
			}
			cfg := opts.Base
			cfg.Strategy = s
			cfg.CaptureData = true
			cfg.Readback = rc
			keys = append(keys, CellKey{Strategy: s, QuerySync: rr.Sync, X: float64(get)})
			cfgs = append(cfgs, cfg)
		}
	}
	cache := search.NewCache()
	start := time.Now()
	_, prof, err := runAllCells(o.parallelism(), o.reps(), cache, cfgs, nil,
		func(cell, rep int, err error) error {
			k := keys[cell]
			return fmt.Errorf("readback: %v get=%g%% rep=%d: %w", k.Strategy, k.X, rep, err)
		},
		func(cell int, reps []*core.Report) {
			k := keys[cell]
			c := reduceReadbackCell(k, reps)
			rr.Cells[k] = c
			for _, r := range reps {
				rr.Metrics = rr.Metrics.Merge(r.Metrics)
			}
			o.progress("readback %s get=%g%%: %.2fs (%.1fx image read back, 0 mismatches)",
				k.Strategy, k.X, c.Overall.Seconds(), c.ReadShare)
		})
	if err != nil {
		return nil, err
	}
	// Slowdown folds in after all cells exist: each cell over its strategy's
	// pure-read (post-run only) column.
	for _, s := range rr.Strat {
		base := rr.Cell(s, 100)
		if base == nil || base.Overall <= 0 {
			continue
		}
		for _, get := range rr.Mixes {
			if c := rr.Cell(s, get); c != nil {
				c.Slowdown = float64(c.Overall) / float64(base.Overall)
			}
		}
	}
	rr.Perf = SweepPerf{
		Parallelism:   o.parallelism(),
		Elapsed:       time.Since(start),
		CellTime:      prof.cellTime,
		CellWall:      prof.cellWall,
		MaxConcurrent: prof.maxConcurrent,
		Workload:      cache.Stats(),
	}
	return rr, nil
}

// reduceReadbackCell folds one cell's per-repetition reports into means, in
// repetition order (same determinism contract as reduceCell).
func reduceReadbackCell(key CellKey, reports []*core.Report) *ReadbackCell {
	c := &ReadbackCell{Cell: *reduceCell(key, reports), GetPct: int(key.X)}
	n := float64(len(reports))
	var share float64
	for _, r := range reports {
		c.Reads += float64(r.ReadbackReads) / n
		c.Extents += float64(r.ReadbackExtents) / n
		c.BytesRead += float64(r.ReadbackBytes) / n
		c.Mismatches += float64(r.ReadbackMismatches) / n
		if r.OutputBytes > 0 {
			share += float64(r.ReadbackBytes) / float64(r.OutputBytes) / n
		}
	}
	c.ReadShare = share
	return c
}

// Table renders the mixed sweep as one row per (strategy, mix).
func (rr *ReadbackResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Readback suite: mixed GET/PUT verification traffic (%s)",
			syncLabel(rr.Sync)),
		"strategy", "GET %", "overall (s)", "slowdown",
		"reads", "extents", "image read (x)", "mismatches")
	for _, s := range rr.Strat {
		for _, get := range rr.Mixes {
			c := rr.Cell(s, get)
			if c == nil {
				continue
			}
			tb.AddRowf(s.String(), get, c.Overall.Seconds(), c.Slowdown,
				c.Reads, c.Extents, c.ReadShare, c.Mismatches)
		}
	}
	return tb
}

// NamedPlan is one committed fault plan of the readback chaos suite: a
// human-readable name plus the fault-spec grammar string it parses from.
type NamedPlan struct {
	Name string
	Spec string
}

// ReadbackChaosOptions scales the readback-under-chaos suite.
type ReadbackChaosOptions struct {
	// Base is the template configuration; Strategy, Readback, and the fault
	// plan are overridden per cell. The resilient protocol is forced on
	// (these plans crash workers and outage servers).
	Base core.Config
	// Plans are the committed fault plans each strategy re-runs with
	// verification on. Empty selects the default battery (worker
	// crash/restart, PVFS outage during reads, server degradation, message
	// drop).
	Plans []NamedPlan
	// Method and InRunReads configure the verification traffic every cell
	// carries (post-run verification is always on).
	Method     romio.Method
	InRunReads int
	// Repetitions, Strategies, Parallelism, Progress: as in Options.
	Repetitions int
	Strategies  []core.Strategy
	Parallelism int
	Progress    func(string)
}

// defaultChaosPlans builds the committed battery for a given worker rank and
// run scale. Times are fractions of window w; the outage is tagged
// phase=read — legal only because every cell runs with readback on.
func defaultChaosPlans(worker int, w des.Time) []NamedPlan {
	ms := func(t des.Time) string { return fmt.Sprintf("%gms", t.Seconds()*1e3) }
	return []NamedPlan{
		{Name: "none", Spec: ""},
		{Name: "worker-crash", Spec: fmt.Sprintf("crash@%s:rank=%d,restart=%s", ms(w/8), worker, ms(w/4))},
		{Name: "pvfs-outage-read", Spec: fmt.Sprintf("outage@%s:server=0,for=%s,phase=read", ms(w/4), ms(w/8))},
		{Name: "pvfs-degrade", Spec: fmt.Sprintf("degrade@%s:server=1,factor=4,for=%s", ms(w/8), ms(w/2))},
		{Name: "msg-drop", Spec: "drop@0s:prob=0.02,for=" + ms(w)},
	}
}

// QuickReadbackChaosOptions returns a scaled-down chaos battery for tests.
func QuickReadbackChaosOptions() ReadbackChaosOptions {
	q := QuickOptions()
	base := q.Base
	base.Procs = 8
	base.Resilient = true
	base.DetectInterval = 2 * des.Millisecond
	return ReadbackChaosOptions{
		Base:        base,
		Method:      romio.ListIO,
		InRunReads:  1,
		Repetitions: 1,
	}
}

// PaperReadbackChaosOptions returns the chaos battery at the paper's scale.
func PaperReadbackChaosOptions() ReadbackChaosOptions {
	base := core.DefaultConfig()
	base.Resilient = true
	return ReadbackChaosOptions{
		Base:        base,
		Method:      romio.ListIO,
		InRunReads:  1,
		Repetitions: 1,
	}
}

// ReadbackChaosCell is one (strategy, plan) cell: verification counters plus
// the recovery work the plan caused.
type ReadbackChaosCell struct {
	Cell
	Plan       string
	Reads      float64
	Extents    float64
	BytesRead  float64
	Mismatches float64
	// CrashesSeen / Reexecuted: mean fault events that landed and tasks
	// dispatched more than once (as in the chaos sweep).
	CrashesSeen float64
	Reexecuted  float64
}

// ReadbackChaosResult is a completed readback-under-chaos battery. Cells are
// keyed by CellKey with X = plan index into Plans.
type ReadbackChaosResult struct {
	Plans   []NamedPlan
	Sync    bool
	Strat   []core.Strategy
	Cells   map[CellKey]*ReadbackChaosCell
	Metrics obs.Snapshot
	Perf    SweepPerf
}

// Cell returns the cell for (strategy, plan index), or nil.
func (rc *ReadbackChaosResult) Cell(s core.Strategy, plan int) *ReadbackChaosCell {
	return rc.Cells[CellKey{Strategy: s, QuerySync: rc.Sync, X: float64(plan)}]
}

// RunReadbackChaos executes the readback-under-chaos battery: every strategy
// re-runs every committed fault plan with end-to-end verification on. Any
// content mismatch fails the corresponding run — and therefore the suite —
// so a returned result certifies zero mismatches across the battery.
func RunReadbackChaos(opts ReadbackChaosOptions) (*ReadbackChaosResult, error) {
	if opts.InRunReads < 1 {
		opts.InRunReads = 1
	}
	workers := opts.Base.WorkerRanks()
	if len(workers) == 0 {
		return nil, fmt.Errorf("experiments: no worker ranks at %d procs", opts.Base.Procs)
	}
	if len(opts.Plans) == 0 {
		opts.Plans = defaultChaosPlans(workers[len(workers)-1], 40*des.Millisecond)
	}
	o := Options{
		Strategies:  opts.Strategies,
		Repetitions: opts.Repetitions,
		Parallelism: opts.Parallelism,
		Progress:    opts.Progress,
		Base:        opts.Base,
	}
	rc := &ReadbackChaosResult{
		Plans: opts.Plans,
		Sync:  opts.Base.QuerySync,
		Strat: o.strategies(),
		Cells: make(map[CellKey]*ReadbackChaosCell),
	}
	var (
		keys []CellKey
		cfgs []core.Config
	)
	for _, s := range rc.Strat {
		for pi, p := range opts.Plans {
			plan, err := fault.Parse(p.Spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: plan %q: %w", p.Name, err)
			}
			cfg := opts.Base
			cfg.Strategy = s
			cfg.Resilient = true
			cfg.CaptureData = true
			cfg.FaultPlan = plan
			cfg.Readback = &core.ReadbackConfig{
				Method:     opts.Method,
				InRunReads: opts.InRunReads,
				PostRun:    true,
			}
			keys = append(keys, CellKey{Strategy: s, QuerySync: rc.Sync, X: float64(pi)})
			cfgs = append(cfgs, cfg)
		}
	}
	cache := search.NewCache()
	start := time.Now()
	_, prof, err := runAllCells(o.parallelism(), o.reps(), cache, cfgs, nil,
		func(cell, rep int, err error) error {
			k := keys[cell]
			return fmt.Errorf("readback-chaos: %v plan=%s rep=%d: %w",
				k.Strategy, opts.Plans[int(k.X)].Name, rep, err)
		},
		func(cell int, reps []*core.Report) {
			k := keys[cell]
			c := reduceReadbackChaosCell(k, opts.Plans[int(k.X)].Name, reps)
			rc.Cells[k] = c
			for _, r := range reps {
				rc.Metrics = rc.Metrics.Merge(r.Metrics)
			}
			o.progress("readback-chaos %s %s: %.2fs (%.0f extents verified, 0 mismatches)",
				k.Strategy, c.Plan, c.Overall.Seconds(), c.Extents)
		})
	if err != nil {
		return nil, err
	}
	rc.Perf = SweepPerf{
		Parallelism:   o.parallelism(),
		Elapsed:       time.Since(start),
		CellTime:      prof.cellTime,
		CellWall:      prof.cellWall,
		MaxConcurrent: prof.maxConcurrent,
		Workload:      cache.Stats(),
	}
	return rc, nil
}

func reduceReadbackChaosCell(key CellKey, plan string, reports []*core.Report) *ReadbackChaosCell {
	c := &ReadbackChaosCell{Cell: *reduceCell(key, reports), Plan: plan}
	n := float64(len(reports))
	for _, r := range reports {
		c.Reads += float64(r.ReadbackReads) / n
		c.Extents += float64(r.ReadbackExtents) / n
		c.BytesRead += float64(r.ReadbackBytes) / n
		c.Mismatches += float64(r.ReadbackMismatches) / n
		mc := r.Metrics.Counters
		c.CrashesSeen += float64(mc["fault.crashes"]) / n
		c.Reexecuted += float64(mc["fault.tasks_reexecuted"]) / n
	}
	return c
}

// Table renders the chaos battery as one row per (strategy, plan).
func (rc *ReadbackChaosResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Readback-under-chaos: verified reads across fault plans (%s)",
			syncLabel(rc.Sync)),
		"strategy", "plan", "overall (s)", "extents", "mismatches",
		"crashes seen", "tasks re-run")
	for _, s := range rc.Strat {
		for pi := range rc.Plans {
			c := rc.Cell(s, pi)
			if c == nil {
				continue
			}
			tb.AddRowf(s.String(), c.Plan, c.Overall.Seconds(), c.Extents,
				c.Mismatches, c.CrashesSeen, c.Reexecuted)
		}
	}
	return tb
}
