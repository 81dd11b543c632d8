package experiments

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/obs"
	"s3asim/internal/trace"
)

// cellSpool collects one tracer per (cell, rep) run. Safe for concurrent use
// by the sweep workers.
type cellSpool struct {
	mu      sync.Mutex
	tracers map[CellKey]map[int]*trace.Tracer
}

func newCellSpool() *cellSpool {
	return &cellSpool{tracers: map[CellKey]map[int]*trace.Tracer{}}
}

func (s *cellSpool) factory() func(key CellKey, rep int) obs.Sink {
	return func(key CellKey, rep int) obs.Sink {
		tr := trace.New()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.tracers[key] == nil {
			s.tracers[key] = map[int]*trace.Tracer{}
		}
		s.tracers[key][rep] = tr
		return tr
	}
}

// events flattens the spool into a comparable map of per-run event slices.
func (s *cellSpool) events() map[CellKey]map[int][]trace.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[CellKey]map[int][]trace.Event{}
	for key, reps := range s.tracers {
		out[key] = map[int][]trace.Event{}
		for rep, tr := range reps {
			out[key][rep] = tr.Events()
		}
	}
	return out
}

// TestCellSinkParallelMatchesSequential is the per-cell determinism
// regression for the tentpole: a sweep with per-run tracers must produce the
// same SweepResult AND the same per-cell timelines at any parallelism —
// unlike Options.Base.Sink, the factories do not force sequential runs.
func TestCellSinkParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) (*SweepResult, map[CellKey]map[int][]trace.Event) {
		opts := QuickOptions()
		opts.Procs = []int{2, 4}
		opts.Repetitions = 2
		opts.Strategies = []core.Strategy{core.WWList, core.MW}
		opts.Parallelism = parallelism
		spool := newCellSpool()
		opts.CellSink = spool.factory()
		sr, err := RunProcessSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		return stripPerf(sr), spool.events()
	}
	seqSR, seqTr := run(1)
	parSR, parTr := run(4)
	if !reflect.DeepEqual(seqSR, parSR) {
		t.Fatal("per-cell sinks broke sweep determinism")
	}
	if !reflect.DeepEqual(seqTr, parTr) {
		t.Fatal("per-cell timelines differ between sequential and parallel runs")
	}
	// Every (cell, rep) run produced a non-empty timeline.
	wantCells := len(seqSR.Cells)
	if len(seqTr) != wantCells {
		t.Fatalf("traced %d cells, sweep has %d", len(seqTr), wantCells)
	}
	for key, reps := range seqTr {
		if len(reps) != 2 {
			t.Fatalf("cell %+v traced %d reps, want 2", key, len(reps))
		}
		for rep, ev := range reps {
			if len(ev) == 0 {
				t.Fatalf("cell %+v rep %d has no events", key, rep)
			}
		}
	}
}

func TestCellMetricsAndSweepSnapshot(t *testing.T) {
	run := func(parallelism int) (*SweepResult, map[CellKey]obs.Snapshot) {
		opts := QuickOptions()
		opts.Procs = []int{2, 4}
		opts.Strategies = []core.Strategy{core.WWList}
		opts.Parallelism = parallelism
		var mu sync.Mutex
		regs := map[CellKey]*obs.Registry{}
		opts.CellMetrics = func(key CellKey, rep int) *obs.Registry {
			r := obs.NewRegistry()
			mu.Lock()
			regs[key] = r
			mu.Unlock()
			return r
		}
		sr, err := RunProcessSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		snaps := map[CellKey]obs.Snapshot{}
		mu.Lock()
		for key, r := range regs {
			snaps[key] = r.Snapshot()
		}
		mu.Unlock()
		return sr, snaps
	}
	sr, snaps := run(1)
	if sr.Metrics.Empty() {
		t.Fatal("SweepResult.Metrics empty")
	}
	// The sweep snapshot is the merge of every run: counters sum across cells.
	var total int64
	for key, s := range snaps {
		if s.Empty() {
			t.Fatalf("cell %+v registry never populated", key)
		}
		total += s.Counters["des.events"]
	}
	if got := sr.Metrics.Counters["des.events"]; got != total {
		t.Fatalf("sweep des.events = %d, cells sum to %d", got, total)
	}
	// Phase histogram observations: one per process per run.
	var procs int64
	for _, c := range sr.Cells {
		procs += int64(c.Key.X)
	}
	if h := sr.Metrics.Hists["phase.Compute"]; h.Count != procs {
		t.Fatalf("phase.Compute count = %d, want %d", h.Count, procs)
	}

	// And the merged sweep metrics are themselves deterministic.
	srPar, _ := run(4)
	if !reflect.DeepEqual(sr.Metrics, srPar.Metrics) {
		t.Fatal("sweep metrics differ between sequential and parallel runs")
	}
}

// TestCellFactoriesDoNotForceSequential pins the contract documented on
// Options: unlike Base.Sink, per-cell factories leave Parallelism alone.
func TestCellFactoriesDoNotForceSequential(t *testing.T) {
	opts := QuickOptions()
	opts.Parallelism = 4
	opts.CellSink = func(CellKey, int) obs.Sink { return trace.New() }
	opts.CellMetrics = func(CellKey, int) *obs.Registry { return obs.NewRegistry() }
	if got := opts.parallelism(); got != 4 {
		t.Fatalf("parallelism = %d, want 4", got)
	}
	opts.Base.Sink = trace.New()
	if got := opts.parallelism(); got != 1 {
		t.Fatalf("a shared tracer must still force sequential, got %d", got)
	}
}

// TestBaseSinkAndCellSinkBothReceive is the regression for a shared
// Base.Sink combined with per-cell sinks: every run's timeline must reach
// both, and the shared tracer must not be driven by concurrent cells (run
// under -race, a parallel sweep would trip on it).
func TestBaseSinkAndCellSinkBothReceive(t *testing.T) {
	opts := QuickOptions()
	opts.Procs = []int{2, 4}
	opts.Strategies = []core.Strategy{core.WWList, core.MW}
	opts.Parallelism = 4
	shared := trace.New()
	opts.Base.Sink = shared
	spool := newCellSpool()
	opts.CellSink = spool.factory()
	sr, err := RunProcessSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Perf.Parallelism != 1 {
		t.Fatalf("sweep ran at parallelism %d with a shared sink, want 1", sr.Perf.Parallelism)
	}
	perCell := 0
	for key, reps := range spool.events() {
		for rep, evs := range reps {
			if len(evs) == 0 {
				t.Fatalf("cell %+v rep %d: per-cell sink saw no events", key, rep)
			}
			perCell += len(evs)
		}
	}
	if got := len(shared.Events()); got == 0 || got != perCell {
		t.Fatalf("shared sink saw %d events, per-cell sinks %d in total", got, perCell)
	}
}

func TestSweepPerfSelfProfile(t *testing.T) {
	opts := QuickOptions()
	opts.Procs = []int{2, 4}
	opts.Repetitions = 2
	opts.Strategies = []core.Strategy{core.WWList, core.MW}
	opts.Parallelism = 4
	sr, err := RunProcessSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := sr.Perf
	runs := len(sr.Cells) * 2
	if len(p.CellWall) != runs {
		t.Fatalf("CellWall has %d entries, want %d runs", len(p.CellWall), runs)
	}
	var sum time.Duration
	for i, w := range p.CellWall {
		if w <= 0 {
			t.Fatalf("CellWall[%d] = %v", i, w)
		}
		sum += w
	}
	if sum != p.CellTime {
		t.Fatalf("sum(CellWall) = %v, CellTime = %v", sum, p.CellTime)
	}
	if p.MaxConcurrent < 1 || p.MaxConcurrent > p.Parallelism {
		t.Fatalf("MaxConcurrent = %d with parallelism %d", p.MaxConcurrent, p.Parallelism)
	}
	if occ := p.Occupancy(); occ <= 0 || occ > 1+1e-9 {
		t.Fatalf("Occupancy = %g", occ)
	}
}
