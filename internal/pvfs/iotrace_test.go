package pvfs

import (
	"strings"
	"testing"

	"s3asim/internal/des"
)

func TestRequestTraceRecordsRequests(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	fs.EnableRequestTrace()
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		f.Write(p, port, 0, 250, 0) // spans servers 0,1,2
		f.Sync(p, port)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	trace := fs.RequestTrace()
	writes, syncs := 0, 0
	var bytes int64
	for _, r := range trace {
		switch r.Kind {
		case "write":
			writes++
			bytes += r.Bytes
		case "sync":
			syncs++
		}
		if r.Done < r.Start || r.Start < r.Submit {
			t.Fatalf("inconsistent timestamps: %+v", r)
		}
		if r.QueueWait() < 0 || r.Service() <= 0 {
			t.Fatalf("negative wait/service: %+v", r)
		}
	}
	if writes != 3 || bytes != 250 {
		t.Fatalf("writes=%d bytes=%d, want 3 writes of 250 bytes", writes, bytes)
	}
	if syncs != testConfig().NumServers {
		t.Fatalf("syncs=%d, want one per server", syncs)
	}
}

func TestRequestTraceOffByDefault(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		f.Write(p, port, 0, 100, 0)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fs.RequestTrace()) != 0 {
		t.Fatal("trace recorded without EnableRequestTrace")
	}
}

func TestAnalyzeTrace(t *testing.T) {
	trace := []RequestRecord{
		{Kind: "write", Server: 0, Bytes: 1000, Segments: 1, Submit: 0, Start: 10, Done: 30},
		{Kind: "write", Server: 1, Bytes: 100 << 10, Segments: 4, Submit: 5, Start: 5, Done: 45},
		{Kind: "sync", Server: 0, Bytes: 0, Segments: 0, Submit: 40, Start: 50, Done: 60},
	}
	st := AnalyzeTrace(trace, 2)
	if st.Requests != 3 || st.Bytes != 1000+100<<10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Span != 60 {
		t.Fatalf("span = %v", st.Span)
	}
	if st.PerKind["write"] != 2 || st.PerKind["sync"] != 1 {
		t.Fatalf("per kind = %v", st.PerKind)
	}
	if st.PerServer[0] != 1000 || st.PerServer[1] != 100<<10 {
		t.Fatalf("per server = %v", st.PerServer)
	}
	if st.MaxWait != 10 {
		t.Fatalf("max wait = %v", st.MaxWait)
	}
	if st.SizeBucket["<4KB"] != 1 || st.SizeBucket[">=1MB"] != 0 ||
		st.SizeBucket["0B"] != 1 {
		t.Fatalf("buckets = %v", st.SizeBucket)
	}
	out := st.Render()
	for _, want := range []string{"requests: 3", "write:", "sync:", "server balance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeTraceEmpty(t *testing.T) {
	st := AnalyzeTrace(nil, 4)
	if st.Requests != 0 || st.Span != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	if out := st.Render(); !strings.Contains(out, "requests: 0") {
		t.Fatalf("render: %s", out)
	}
}

func TestSizeBuckets(t *testing.T) {
	cases := map[int64]string{
		0:           "0B",
		100:         "<4KB",
		8 << 10:     "4-64KB",
		128<<10 + 1: "64KB-1MB",
		2 << 20:     ">=1MB",
	}
	for n, want := range cases {
		if got := sizeBucket(n); got != want {
			t.Fatalf("sizeBucket(%d) = %q, want %q", n, got, want)
		}
	}
}
