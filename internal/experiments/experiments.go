// Package experiments reproduces the paper's evaluation (§4): the
// process-scalability suite behind Figures 2–4 and the compute-speed suite
// behind Figures 5–7, plus the headline speedup ratios quoted in the text.
// Each suite runs the full strategy × {no-sync, sync} matrix and exposes the
// same rows/series the paper plots.
//
// Every cell of a suite is an independent deterministic simulation, so the
// harness fans cells out across a bounded pool of goroutines (see
// Options.Parallelism) and shares each pseudo-randomly generated workload
// across all cells that use it (search.Cache) — the results are
// bit-identical to a sequential sweep.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/obs"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// Options scales a suite. PaperOptions matches §3.3/§4; QuickOptions is a
// reduced configuration for tests.
type Options struct {
	// Base is the template configuration; Strategy, QuerySync, Procs and
	// ComputeSpeed are overridden per cell.
	Base core.Config
	// Procs is the process-scalability sweep (Figures 2–4).
	Procs []int
	// Speeds is the compute-speed sweep (Figures 5–7).
	Speeds []float64
	// SpeedProcs is the process count used in the speed sweep (paper: 64).
	SpeedProcs int
	// Repetitions averages this many runs per cell. The simulator is
	// deterministic, so repetitions vary the workload seed (seed+i) — the
	// closest analogue of the paper's 3-run averaging.
	Repetitions int
	// Strategies defaults to all four.
	Strategies []core.Strategy
	// Parallelism bounds how many simulation cells run concurrently; each
	// cell owns a private DES kernel, so outer parallelism never perturbs
	// results. 0 means GOMAXPROCS; 1 runs sequentially. A sweep produces
	// bit-identical SweepResults at every parallelism (cells are keyed and
	// collected independent of completion order). Setting Base.Sink or
	// Base.Metrics (without CellMetrics) forces sequential execution: a sink
	// or registry shared by every run is cross-cell mutable state.
	Parallelism int
	// Progress, if non-nil, receives a line per completed cell. The sweep
	// may run cells concurrently, but Progress calls are serialized through
	// a mutex and always arrive in the deterministic sequential order
	// (strategy, sync, x) — a cell is announced only after every earlier
	// cell has been. Progress must still not block indefinitely.
	Progress func(string)
	// CellSink, if non-nil, supplies a timeline sink for each (cell,
	// repetition) run (return nil to skip a run). Every run receives
	// private observer state, so — unlike the shared Base.Sink — per-cell
	// sinks do NOT force sequential execution: the sweep stays bit-identical
	// at any Parallelism. The factory may be called from several goroutines
	// at once; returning a distinct sink per call is all it takes to be safe.
	// A Base.Sink, if also set, receives every run's events as well.
	CellSink func(key CellKey, rep int) obs.Sink
	// CellMetrics, if non-nil, likewise supplies a per-run metrics registry.
	// Each run's snapshot lands in its Report and is merged into
	// SweepResult.Metrics either way; use CellMetrics to additionally keep
	// every run's registry (per-cell reports, custom aggregation).
	CellMetrics func(key CellKey, rep int) *obs.Registry
	// CellCausal, if non-nil, supplies a per-run happens-before recorder
	// (return nil to skip a run). Runs with a recorder land their
	// critical-path attribution in the cell (Cell.Path/PathRuns) and in the
	// sweep's AttributionTable. Like CellSink, each run gets private state,
	// so the sweep stays bit-identical at any Parallelism.
	CellCausal func(key CellKey, rep int) *causal.Recorder
}

// PaperOptions returns the paper's full experiment scale.
func PaperOptions() Options {
	return Options{
		Base:        core.DefaultConfig(),
		Procs:       []int{2, 4, 8, 16, 32, 48, 64, 96},
		Speeds:      []float64{0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6},
		SpeedProcs:  64,
		Repetitions: 1,
	}
}

// QuickOptions returns a scaled-down suite suitable for tests: a small
// workload, few sweep points, one repetition.
func QuickOptions() Options {
	base := core.DefaultConfig()
	base.Workload.NumQueries = 4
	base.Workload.NumFragments = 16
	base.Workload.MinResults = 40
	base.Workload.MaxResults = 60
	base.Workload.QueryHist = stats.Uniform(200, 2000)
	base.Workload.DBSeqHist = stats.Uniform(200, 20000)
	base.Workload.MinResultSize = 512
	return Options{
		Base:        base,
		Procs:       []int{2, 4, 8},
		Speeds:      []float64{0.5, 1, 4},
		SpeedProcs:  8,
		Repetitions: 1,
	}
}

func (o *Options) strategies() []core.Strategy {
	if len(o.Strategies) > 0 {
		return o.Strategies
	}
	return core.Strategies
}

func (o *Options) reps() int {
	if o.Repetitions < 1 {
		return 1
	}
	return o.Repetitions
}

func (o *Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// CellKey identifies one (strategy, sync, x) cell of a sweep.
type CellKey struct {
	Strategy  core.Strategy
	QuerySync bool
	X         float64 // process count or compute speed
}

// Cell holds the averaged outcome of a sweep cell.
type Cell struct {
	Key     CellKey
	Runs    int
	Overall des.Time // mean overall execution time
	// OverallStd is the standard deviation of the overall time across
	// repetitions (0 with a single repetition). Repetitions vary the
	// workload seed, so this is workload variance, not measurement noise.
	OverallStd des.Time
	// WorkerPhases is the mean over repetitions of the worker-average
	// per-phase decomposition (what Figures 3/4/6/7 plot).
	WorkerPhases [core.NumPhases]des.Time
	MasterPhases [core.NumPhases]des.Time
	// Path is the mean critical-path attribution over the PathRuns
	// repetitions that ran with a causal recorder (Options.CellCausal);
	// zero when none did.
	Path     causal.Breakdown
	PathRuns int
}

// SweepResult is a completed suite.
type SweepResult struct {
	Kind  string // "procs" or "speed"
	Xs    []float64
	Syncs []bool
	Strat []core.Strategy
	Cells map[CellKey]*Cell
	// Metrics aggregates every run's instrumentation snapshot across the
	// whole sweep (counters summed, histograms merged), folded in
	// deterministic cell-then-repetition order.
	Metrics obs.Snapshot
	// Perf describes the execution itself (wall-clock, parallelism,
	// workload-cache outcomes). It is the only part of a SweepResult that
	// varies between runs of identical Options.
	Perf SweepPerf
}

// Cell returns the cell for (strategy, sync, x), or nil.
func (sr *SweepResult) Cell(s core.Strategy, sync bool, x float64) *Cell {
	return sr.Cells[CellKey{Strategy: s, QuerySync: sync, X: x}]
}

// reduceCell folds one cell's per-repetition reports, in repetition order,
// into the averaged Cell. Folding in a fixed order keeps floating-point
// accumulation — and therefore the SweepResult — independent of which
// goroutine finished first.
func reduceCell(key CellKey, reports []*core.Report) *Cell {
	cell := &Cell{Key: key}
	var overall stats.Online
	for _, r := range reports {
		cell.Runs++
		overall.Add(r.Overall.Seconds())
		for p := 0; p < int(core.NumPhases); p++ {
			cell.WorkerPhases[p] += r.WorkerAvg.Phases[p]
			cell.MasterPhases[p] += r.Master.Phases[p]
		}
		if r.Attribution != nil {
			cell.Path.Add(r.Attribution.ByCat)
			cell.PathRuns++
		}
	}
	if cell.PathRuns > 0 {
		for i := range cell.Path {
			cell.Path[i] /= des.Time(cell.PathRuns)
		}
	}
	n := des.Time(cell.Runs)
	cell.Overall = des.FromSeconds(overall.Mean())
	cell.OverallStd = des.FromSeconds(overall.Std())
	for p := range cell.WorkerPhases {
		cell.WorkerPhases[p] /= n
		cell.MasterPhases[p] /= n
	}
	return cell
}

// runMatrix sweeps xs applying setX to the base config per point. Every
// (strategy, sync, x, rep) cell is an independent simulation, so the matrix
// fans out across Options.Parallelism workers; each distinct workload spec
// is generated once and shared (the paper's workloads are pseudo-random and
// identical across strategies and process counts, §3.3).
func runMatrix(opts Options, kind string, xs []float64, setX func(*core.Config, float64)) (*SweepResult, error) {
	sr := &SweepResult{
		Kind:  kind,
		Xs:    xs,
		Syncs: []bool{false, true},
		Strat: opts.strategies(),
		Cells: make(map[CellKey]*Cell),
	}
	var (
		keys []CellKey
		cfgs []core.Config
	)
	for _, s := range sr.Strat {
		for _, sync := range sr.Syncs {
			for _, x := range xs {
				cfg := opts.Base
				cfg.Strategy = s
				cfg.QuerySync = sync
				if opts.CellMetrics != nil {
					cfg.Metrics = nil // replaced per run by prep
				}
				setX(&cfg, x)
				keys = append(keys, CellKey{Strategy: s, QuerySync: sync, X: x})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	cache := search.NewCache()
	prep := func(cell, rep int, cfg *core.Config) {
		if opts.CellSink != nil {
			cfg.Sink = obs.Multi(opts.Base.Sink, opts.CellSink(keys[cell], rep))
		}
		if opts.CellMetrics != nil {
			cfg.Metrics = opts.CellMetrics(keys[cell], rep)
		}
		if opts.CellCausal != nil {
			cfg.Causal = opts.CellCausal(keys[cell], rep)
		}
	}
	start := time.Now()
	_, prof, err := runAllCells(opts.parallelism(), opts.reps(), cache, cfgs, prep,
		func(cell, rep int, err error) error {
			k := keys[cell]
			return fmt.Errorf("experiments: %v sync=%v x=%g rep=%d: %w",
				k.Strategy, k.QuerySync, k.X, rep, err)
		},
		func(cell int, reps []*core.Report) {
			k := keys[cell]
			c := reduceCell(k, reps)
			sr.Cells[k] = c
			for _, r := range reps {
				sr.Metrics = sr.Metrics.Merge(r.Metrics)
			}
			opts.progress("%s %s sync=%v x=%g: %.2fs",
				kind, k.Strategy, k.QuerySync, k.X, c.Overall.Seconds())
		})
	if err != nil {
		return nil, err
	}
	sr.Perf = SweepPerf{
		Parallelism:   opts.parallelism(),
		Elapsed:       time.Since(start),
		CellTime:      prof.cellTime,
		CellWall:      prof.cellWall,
		MaxConcurrent: prof.maxConcurrent,
		Workload:      cache.Stats(),
	}
	return sr, nil
}

// RunProcessSweep executes the process-scalability suite (Figures 2–4).
func RunProcessSweep(opts Options) (*SweepResult, error) {
	xs := make([]float64, len(opts.Procs))
	for i, p := range opts.Procs {
		xs[i] = float64(p)
	}
	return runMatrix(opts, "procs", xs, func(c *core.Config, x float64) {
		c.Procs = int(x)
	})
}

// RunSpeedSweep executes the compute-speed suite at SpeedProcs processes
// (Figures 5–7).
func RunSpeedSweep(opts Options) (*SweepResult, error) {
	xs := append([]float64(nil), opts.Speeds...)
	sort.Float64s(xs)
	return runMatrix(opts, "speed", xs, func(c *core.Config, x float64) {
		c.Procs = opts.SpeedProcs
		c.ComputeSpeed = x
	})
}
