package core

import (
	"bytes"
	"reflect"
	"testing"

	"s3asim/internal/obs"
	"s3asim/internal/trace"
)

func TestReportMetricsPopulated(t *testing.T) {
	cfg := tinyConfig()
	rep := mustRun(t, cfg)
	m := rep.Metrics
	if m.Empty() {
		t.Fatal("Report.Metrics empty without an explicit registry")
	}
	if got := m.Counters["des.events"]; got != int64(rep.Events) {
		t.Fatalf("des.events = %d, want %d", got, rep.Events)
	}
	if got := m.Counters["mpi.messages"]; got != int64(rep.Messages) {
		t.Fatalf("mpi.messages = %d, want %d", got, rep.Messages)
	}
	if got := m.Counters["pvfs.requests"]; got != int64(rep.FS.TotalRequests) {
		t.Fatalf("pvfs.requests = %d, want %d", got, rep.FS.TotalRequests)
	}
	if got := m.Counters["pvfs.syncs"]; got != int64(rep.FS.TotalSyncs) {
		t.Fatalf("pvfs.syncs = %d, want %d", got, rep.FS.TotalSyncs)
	}
	if g := m.Gauges["run.overall_s"]; g != rep.Overall.Seconds() {
		t.Fatalf("run.overall_s = %g, want %g", g, rep.Overall.Seconds())
	}
	// One observation per process in every phase histogram.
	for p := Phase(0); p < NumPhases; p++ {
		h := m.Hists["phase."+p.String()]
		if h.Count != int64(cfg.Procs) {
			t.Fatalf("phase %v hist count = %d, want %d", p, h.Count, cfg.Procs)
		}
	}
	if h := m.Hists["mpi.rank_messages"]; h.Count != int64(cfg.Procs) ||
		h.Sum != float64(rep.Messages) {
		t.Fatalf("mpi.rank_messages = %+v, want %d ranks summing to %d",
			h, cfg.Procs, rep.Messages)
	}
	if h := m.Hists["pvfs.server_bytes"]; h.Count != int64(len(rep.FS.Servers)) {
		t.Fatalf("pvfs.server_bytes count = %d, want %d", h.Count, len(rep.FS.Servers))
	}
	if h := m.Hists["pvfs.queue_wait"]; h.Count != int64(rep.FS.TotalRequests) {
		t.Fatalf("pvfs.queue_wait count = %d, want %d", h.Count, rep.FS.TotalRequests)
	}
}

func TestReportMetricsDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a := mustRun(t, cfg).Metrics
	b := mustRun(t, cfg).Metrics
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different metrics snapshots")
	}
}

func TestCallerSuppliedRegistryAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := tinyConfig()
	cfg.Metrics = reg
	r1 := mustRun(t, cfg)
	r2 := mustRun(t, cfg)
	// The shared registry accumulates both runs; each report snapshots the
	// state at its own end.
	if got := reg.Snapshot().Counters["des.events"]; got != int64(r1.Events+r2.Events) {
		t.Fatalf("accumulated des.events = %d, want %d", got, r1.Events+r2.Events)
	}
	if r1.Metrics.Counters["des.events"] != int64(r1.Events) {
		t.Fatal("first report should snapshot only its own run")
	}
}

func TestConfigSinkReceivesTimeline(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewStreamSink(&buf)
	cfg := tinyConfig()
	cfg.Sink = sink
	rep := mustRun(t, cfg)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	var lastEnd int64
	for _, e := range events {
		procs[e.Proc] = true
		if int64(e.End) > lastEnd {
			lastEnd = int64(e.End)
		}
	}
	if len(procs) != cfg.Procs {
		t.Fatalf("streamed %d processes, want %d", len(procs), cfg.Procs)
	}
	if lastEnd != int64(rep.Overall) {
		t.Fatalf("stream ends at %d, run at %d", lastEnd, int64(rep.Overall))
	}
}

// TestSinkAndTracerBothRecord checks fan-out through Config.Sink: an
// in-memory Tracer and a streaming sink combined with obs.Multi each see
// the full timeline.
func TestSinkAndTracerBothRecord(t *testing.T) {
	tr := trace.New()
	var buf bytes.Buffer
	sink := obs.NewStreamSink(&buf)
	cfg := tinyConfig()
	cfg.Sink = obs.Multi(tr, sink)
	mustRun(t, cfg)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) == 0 || len(streamed) == 0 {
		t.Fatalf("tracer=%d streamed=%d events, want both non-empty",
			len(tr.Events()), len(streamed))
	}
	if len(tr.Events()) != len(streamed) {
		t.Fatalf("tracer saw %d events, stream saw %d", len(tr.Events()), len(streamed))
	}
}
