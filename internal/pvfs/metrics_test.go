package pvfs

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/obs"
)

func TestResetRequestTrace(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	fs.EnableRequestTrace()
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		f.Write(p, port, 0, 250, 0)
		p.Sleep(des.Second)
		fs.ResetRequestTrace() // new measurement window
		f.Write(p, port, 1000, 50, 1000)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	trace := fs.RequestTrace()
	if len(trace) != 1 {
		t.Fatalf("post-reset trace = %d records, want 1", len(trace))
	}
	if trace[0].Bytes != 50 {
		t.Fatalf("post-reset record = %+v, want the second write", trace[0])
	}
}

func TestMetricsRecordedPerRequest(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	reg := obs.NewRegistry()
	fs.SetMetrics(reg)
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		f.Write(p, port, 0, 250, 0) // strips of 100 B: servers 0,1,2
		f.Read(p, port, 0, 100)
		f.Sync(p, port)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	servers := int64(testConfig().NumServers)
	if got, want := s.Counters["pvfs.requests"], int64(3+1)+servers; got != want {
		t.Fatalf("pvfs.requests = %d, want %d", got, want)
	}
	if s.Counters["pvfs.bytes_written"] != 250 {
		t.Fatalf("bytes_written = %d", s.Counters["pvfs.bytes_written"])
	}
	if s.Counters["pvfs.bytes_read"] != 100 {
		t.Fatalf("bytes_read = %d", s.Counters["pvfs.bytes_read"])
	}
	if s.Counters["pvfs.syncs"] != servers {
		t.Fatalf("syncs = %d, want one per server", s.Counters["pvfs.syncs"])
	}
	qw := s.Hists["pvfs.queue_wait"]
	if qw.Count != 4+servers || qw.Min < 0 {
		t.Fatalf("queue_wait hist = %+v", qw)
	}
	svc := s.Hists["pvfs.service"]
	if svc.Count != 4+servers || svc.Min <= 0 {
		t.Fatalf("service hist = %+v", svc)
	}
	// request_bytes excludes syncs (no payload).
	if rb := s.Hists["pvfs.request_bytes"]; rb.Count != 4 {
		t.Fatalf("request_bytes hist = %+v", rb)
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		f.Write(p, port, 0, 100, 0)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err) // a nil registry must not panic the request path
	}
}
