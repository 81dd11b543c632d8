package core

import (
	"testing"

	"s3asim/internal/trace"
)

func TestTracerRecordsAllProcesses(t *testing.T) {
	tr := trace.New()
	cfg := tinyConfig()
	cfg.Strategy = WWColl
	cfg.Sink = tr
	rep := mustRun(t, cfg)

	procs := map[string]bool{}
	var lastEnd int64
	for _, e := range tr.Events() {
		procs[e.Proc] = true
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if int64(e.End) > lastEnd {
			lastEnd = int64(e.End)
		}
	}
	if len(procs) != cfg.Procs {
		t.Fatalf("traced %d processes, want %d", len(procs), cfg.Procs)
	}
	if lastEnd != int64(rep.Overall) {
		t.Fatalf("trace ends at %d, run at %d", lastEnd, int64(rep.Overall))
	}
	// Every phase that has nonzero time must appear as a trace state for
	// some worker.
	stateSeen := map[string]bool{}
	for _, e := range tr.Events() {
		stateSeen[e.Name] = true
	}
	for p := 0; p < int(NumPhases); p++ {
		if rep.WorkerAvg.Phases[p] > 0 && !stateSeen[Phase(p).String()] {
			t.Fatalf("phase %v has time but no trace state", Phase(p))
		}
	}
	// And the Gantt renderer must handle the real trace.
	if out := trace.Gantt(tr.Events(), 60); len(out) == 0 {
		t.Fatal("empty gantt")
	}
}
