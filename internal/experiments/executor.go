package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/search"
)

// This file is the sweep executor: every cell of a suite is an independent
// deterministic simulation (a private des.Simulation per run), so the suite
// fans cells out across a bounded pool of OS-level workers while each DES
// kernel stays single-threaded. Results are keyed and collected independent
// of completion order, so a parallel sweep is bit-identical to a sequential
// one.

// forEach runs job(0..n-1) across at most parallelism goroutines and
// returns the lowest-index error. With parallelism <= 1 it degenerates to a
// plain loop that stops at the first error, like the pre-parallel harness.
// After any failure no new jobs start.
func forEach(parallelism, n int, job func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   int
		failed   bool
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := failed
		mu.Unlock()
		if stop {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// parallelism resolves the pool width for a suite: Options.Parallelism if
// positive, else GOMAXPROCS. A sink or a metrics registry in the base
// config is cross-cell mutable state, so either forces sequential runs: a
// shared registry's per-run snapshots are cumulative, and their merge would
// otherwise depend on completion order. Per-cell factories
// (CellSink/CellMetrics) hand every run private state and therefore do not
// restrict parallelism; CellMetrics replaces Base.Metrics.
func (o *Options) parallelism() int {
	if o.Base.Sink != nil || o.Base.Metrics != nil && o.CellMetrics == nil {
		return 1
	}
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// SweepPerf records how a sweep executed in wall-clock (not virtual) time.
type SweepPerf struct {
	// Parallelism is the worker-pool width the sweep ran with.
	Parallelism int
	// Elapsed is the suite's wall-clock duration.
	Elapsed time.Duration
	// CellTime sums the per-run wall-clock durations — an estimate of the
	// sequential cost of the same suite, so CellTime/Elapsed estimates the
	// realized speedup. Individual cell durations include any time a cell
	// spent descheduled, so when cells oversubscribe the available cores
	// (Parallelism > core count) the estimate is optimistic; for an exact
	// figure compare Elapsed between two sweeps at Parallelism 1 and N.
	CellTime time.Duration
	// CellWall holds every (cell, repetition) run's wall-clock duration in
	// the deterministic job order (cell-major, repetition-minor); it sums to
	// CellTime. Use it to find the sweep's slowest cells.
	CellWall []time.Duration
	// MaxConcurrent is the highest number of simulations observed in flight
	// at once — at most Parallelism, lower when the pool was starved (fewer
	// jobs than workers, or a failure stopped dispatch early).
	MaxConcurrent int
	// Workload counts workload-cache outcomes: Misses is the number of
	// distinct workloads generated for the whole sweep.
	Workload search.CacheStats
}

// Speedup estimates the wall-clock speedup over a sequential execution of
// the same cells (summed cell time over elapsed time).
func (p SweepPerf) Speedup() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.CellTime) / float64(p.Elapsed)
}

// Occupancy estimates pool utilization: realized speedup over pool width
// (1.0 means every worker was busy for the whole sweep). Subject to the
// same descheduling caveat as CellTime.
func (p SweepPerf) Occupancy() float64 {
	if p.Parallelism <= 0 {
		return 0
	}
	return p.Speedup() / float64(p.Parallelism)
}

// cellRun is one (cell, repetition) simulation: the flattened unit of
// parallelism of a sweep.
type cellRun struct {
	cell int // index into the deterministic cell order
	rep  int
}

// simPool hands out reset-and-reused des kernels so a thousand-cell sweep
// pays for calendar storage and process/waiter pools once per executor slot
// instead of once per run. Reset makes a reused kernel observably identical
// to a fresh one, so sweeps stay bit-identical at any parallelism. Kernels
// from successful runs return directly (the next run Resets them itself);
// kernels from failed runs (a deadlock diagnosis, a faulted cell) return
// through putAfterReset, which re-verifies the reset before recirculating —
// so a chaos sweep full of error cells does not allocate a fresh kernel per
// failure.
type simPool struct {
	mu   sync.Mutex
	sims []*des.Simulation
}

func (p *simPool) get() *des.Simulation {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.sims); n > 0 {
		s := p.sims[n-1]
		p.sims = p.sims[:n-1]
		return s
	}
	return des.New()
}

func (p *simPool) put(s *des.Simulation) {
	p.mu.Lock()
	p.sims = append(p.sims, s)
	p.mu.Unlock()
}

// putAfterReset recycles a kernel whose run ended in an error. The kernel is
// Reset here and the post-conditions checked (clean calendar, zeroed clock,
// no registered processes); a kernel that somehow fails verification is
// dropped rather than recirculated.
func (p *simPool) putAfterReset(s *des.Simulation) {
	if s == nil {
		return
	}
	s.Reset()
	if s.Now() != 0 || s.PendingEvents() != 0 || s.Procs() != 0 {
		return
	}
	p.put(s)
}

// execProfile is the executor's self-measurement: the wall-clock cost of
// every (cell, rep) run and the pool occupancy it achieved.
type execProfile struct {
	cellTime      time.Duration   // sum over cellWall
	cellWall      []time.Duration // per job, cell-major rep-minor order
	maxConcurrent int             // peak simulations in flight
}

// runAllCells executes every (cell, rep) of cfgs across the pool, sharing
// workloads through cache, and returns per-cell per-rep reports in
// deterministic order. prep, if non-nil, customizes each run's private
// config copy (per-cell sinks and registries) before the simulation starts.
// onCell fires exactly once per completed cell, in ascending cell order,
// serialized under a mutex — this is what makes Options.Progress ordered
// and race-free regardless of completion order. A registry shared by every
// run (Base.Metrics) cannot collect Telemetry windows for more than one
// run, so that combination fails before any cell starts.
func runAllCells(par, reps int, cache *search.Cache, cfgs []core.Config,
	prep func(cell, rep int, cfg *core.Config),
	runErr func(cell, rep int, err error) error,
	onCell func(cell int, reports []*core.Report)) ([][]*core.Report, execProfile, error) {

	if reps*len(cfgs) > 1 {
		for _, cfg := range cfgs {
			if cfg.Metrics != nil && cfg.Telemetry != nil {
				return nil, execProfile{}, fmt.Errorf("experiments: Telemetry windows need an empty registry per run, "+
					"but every one of the %d runs shares Base.Metrics; leave it nil or use Options.CellMetrics", reps*len(cfgs))
			}
		}
	}
	reports := make([][]*core.Report, len(cfgs))
	for i := range reports {
		reports[i] = make([]*core.Report, reps)
	}
	var (
		mu        sync.Mutex
		prof      = execProfile{cellWall: make([]time.Duration, len(cfgs)*reps)}
		inFlight  int
		remaining = make([]int, len(cfgs))
		done      = make([]bool, len(cfgs))
		cursor    int
	)
	for i := range remaining {
		remaining[i] = reps
	}
	jobs := make([]cellRun, 0, len(cfgs)*reps)
	for c := range cfgs {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, cellRun{cell: c, rep: r})
		}
	}
	var sims simPool
	err := forEach(par, len(jobs), func(i int) error {
		j := jobs[i]
		cfg := cfgs[j.cell]
		// Repetitions vary the workload seed (seed+rep), the closest
		// analogue of the paper's 3-run averaging.
		cfg.Workload.Seed += int64(j.rep)
		if prep != nil {
			prep(j.cell, j.rep, &cfg)
		}
		cfg.Sim = sims.get()
		wl := cache.Get(cfg.EffectiveWorkload())
		mu.Lock()
		inFlight++
		if inFlight > prof.maxConcurrent {
			prof.maxConcurrent = inFlight
		}
		mu.Unlock()
		start := time.Now()
		rep, err := core.RunWithWorkload(cfg, wl)
		elapsed := time.Since(start)
		if err == nil {
			sims.put(cfg.Sim)
		} else {
			sims.putAfterReset(cfg.Sim)
		}
		mu.Lock()
		defer mu.Unlock()
		inFlight--
		prof.cellTime += elapsed
		prof.cellWall[i] = elapsed
		if err != nil {
			return runErr(j.cell, j.rep, err)
		}
		reports[j.cell][j.rep] = rep
		remaining[j.cell]--
		if remaining[j.cell] == 0 {
			done[j.cell] = true
			// Flush completed cells in deterministic ascending order: a cell
			// is announced only once every earlier cell has been.
			for cursor < len(done) && done[cursor] {
				if onCell != nil {
					onCell(cursor, reports[cursor])
				}
				cursor++
			}
		}
		return nil
	})
	return reports, prof, err
}
