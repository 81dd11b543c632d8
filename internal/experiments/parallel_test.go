package experiments

import (
	"errors"
	"reflect"
	"testing"

	"s3asim/internal/core"
	"s3asim/internal/trace"
)

// stripPerf zeroes the execution metadata, the only part of a SweepResult
// allowed to differ between runs of identical Options.
func stripPerf(sr *SweepResult) *SweepResult {
	sr.Perf = SweepPerf{}
	return sr
}

// TestParallelSweepMatchesSequential is the determinism regression: the
// process and speed sweeps must produce exactly equal SweepResults — every
// cell, overall time, and phase vector — whether cells run sequentially or
// across 4 workers.
func TestParallelSweepMatchesSequential(t *testing.T) {
	for _, kind := range []string{"procs", "speed"} {
		run := func(parallelism int) *SweepResult {
			opts := QuickOptions()
			opts.Parallelism = parallelism
			var (
				sr  *SweepResult
				err error
			)
			if kind == "procs" {
				sr, err = RunProcessSweep(opts)
			} else {
				sr, err = RunSpeedSweep(opts)
			}
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", kind, parallelism, err)
			}
			return stripPerf(sr)
		}
		seq := run(1)
		par := run(4)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s sweep: parallel result differs from sequential", kind)
		}
	}
}

// TestParallelRepetitionsMatchSequential extends the regression to
// multi-repetition cells: repetitions are folded in seed order regardless
// of completion order.
func TestParallelRepetitionsMatchSequential(t *testing.T) {
	run := func(parallelism int) *SweepResult {
		opts := QuickOptions()
		opts.Procs = []int{4}
		opts.Repetitions = 3
		opts.Strategies = []core.Strategy{core.WWList, core.MW}
		opts.Parallelism = parallelism
		sr, err := RunProcessSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		return stripPerf(sr)
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("repetition averaging differs between sequential and parallel runs")
	}
}

// TestParallelProgressOrdered checks the Options.Progress contract: calls
// are serialized and arrive in the deterministic (strategy, sync, x) order
// even when cells complete out of order.
func TestParallelProgressOrdered(t *testing.T) {
	lines := func(parallelism int) []string {
		opts := QuickOptions()
		opts.Parallelism = parallelism
		var got []string
		opts.Progress = func(s string) { got = append(got, s) }
		if _, err := RunProcessSweep(opts); err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq := lines(1)
	par := lines(8)
	if len(seq) == 0 {
		t.Fatal("no progress lines")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("progress order differs:\nseq: %v\npar: %v", seq, par)
	}
}

// TestSweepWorkloadGeneratedOncePerSpec checks the workload-sharing layer:
// a sweep's cells differ only in engine configuration, so the whole suite
// needs exactly Repetitions distinct workloads (one per varied seed).
func TestSweepWorkloadGeneratedOncePerSpec(t *testing.T) {
	opts := QuickOptions()
	opts.Parallelism = 4
	opts.Repetitions = 2
	sr, err := RunProcessSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := sr.Perf.Workload
	runs := len(sr.Cells) * opts.Repetitions
	if want := uint64(opts.Repetitions); stats.Misses != want {
		t.Fatalf("workload generations = %d, want %d (one per distinct seed)", stats.Misses, want)
	}
	if want := uint64(runs - opts.Repetitions); stats.Hits != want {
		t.Fatalf("cache hits = %d, want %d", stats.Hits, want)
	}
	if sr.Perf.Parallelism != 4 {
		t.Fatalf("recorded parallelism = %d, want 4", sr.Perf.Parallelism)
	}
	if sr.Perf.Elapsed <= 0 || sr.Perf.CellTime <= 0 {
		t.Fatalf("missing wall-clock accounting: %+v", sr.Perf)
	}
}

// TestTracerForcesSequential pins the guard for the one piece of cross-cell
// mutable state: a tracer shared as Base.Sink disables outer parallelism,
// in the figure sweeps and in the extension studies alike.
func TestTracerForcesSequential(t *testing.T) {
	opts := QuickOptions()
	opts.Parallelism = 8
	opts.Base.Sink = trace.New()
	if got := opts.parallelism(); got != 1 {
		t.Fatalf("parallelism with tracer = %d, want 1", got)
	}
	if got := newExtExec(&opts.Base, []int{8}).par; got != 1 {
		t.Fatalf("extension parallelism with tracer = %d, want 1", got)
	}
	opts.Base.Sink = nil
	if got := opts.parallelism(); got != 8 {
		t.Fatalf("parallelism = %d, want 8", got)
	}
	if got := newExtExec(&opts.Base, []int{8}).par; got != 8 {
		t.Fatalf("extension parallelism = %d, want 8", got)
	}
}

// TestForEachFirstError checks the executor reports the lowest-index error
// and stops launching new work after a failure.
func TestForEachFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	err := forEach(4, 16, func(i int) error {
		if i == 3 || i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	// Sequential path stops at the first error.
	ran := 0
	err = forEach(1, 16, func(i int) error {
		ran++
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || ran != 4 {
		t.Fatalf("sequential: err=%v ran=%d, want sentinel after 4 jobs", err, ran)
	}
}

// TestParallelExtensionsMatchSequential checks the §5 studies render
// identical tables at any parallelism.
func TestParallelExtensionsMatchSequential(t *testing.T) {
	base := QuickOptions().Base
	base.Procs = 4
	seq, err := ServerSweep(base, []int{4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ServerSweep(base, []int{4, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("ServerSweep differs:\nseq:\n%s\npar:\n%s", seq, par)
	}
	cseq, err := CollectiveComparison(base, []int{4, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpar, err := CollectiveComparison(base, []int{4, 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cseq.String() != cpar.String() {
		t.Fatalf("CollectiveComparison differs:\nseq:\n%s\npar:\n%s", cseq, cpar)
	}
}
