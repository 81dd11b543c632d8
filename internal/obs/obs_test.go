package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/trace"
)

func TestRegistryCountersGaugesHists(t *testing.T) {
	r := NewRegistry()
	r.Add("reqs", 2)
	r.Add("reqs", 3)
	r.Set("util", 0.5)
	r.Set("util", 0.75)
	for _, v := range []float64{1, 2, 3, 4} {
		r.Observe("wait", v)
	}
	r.ObserveTime("dur", 2*des.Second)

	s := r.Snapshot()
	if s.Counters["reqs"] != 5 {
		t.Fatalf("counter = %d, want 5", s.Counters["reqs"])
	}
	if s.Gauges["util"] != 0.75 {
		t.Fatalf("gauge = %g, want last-set 0.75", s.Gauges["util"])
	}
	h := s.Hists["wait"]
	if h.Count != 4 || h.Min != 1 || h.Max != 4 || h.Mean != 2.5 || h.Sum != 10 {
		t.Fatalf("hist = %+v", h)
	}
	if h.P50 <= h.Min || h.P99 > h.Max {
		t.Fatalf("quantiles out of range: %+v", h)
	}
	if d := s.Hists["dur"]; d.Count != 1 || d.Mean != 2 {
		t.Fatalf("ObserveTime should record seconds: %+v", d)
	}
	if s.Empty() {
		t.Fatal("populated snapshot reported empty")
	}
	if !(Snapshot{}).Empty() {
		t.Fatal("zero snapshot should be empty")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 1)
	s := r.Snapshot()
	r.Add("c", 10)
	if s.Counters["c"] != 1 {
		t.Fatal("snapshot aliases live registry state")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Add("reqs", 3)
	a.Set("overall", 1.5)
	a.Observe("wait", 1)
	a.Observe("wait", 3)
	b := NewRegistry()
	b.Add("reqs", 4)
	b.Add("only_b", 1)
	b.Set("overall", 2.5)
	b.Observe("wait", 5)
	b.Observe("wait", 7)
	b.Observe("only_b_hist", 9)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["reqs"] != 7 || m.Counters["only_b"] != 1 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if m.Gauges["overall"] != 2.5 {
		t.Fatalf("gauge should take the merged-in value: %v", m.Gauges)
	}
	h := m.Hists["wait"]
	if h.Count != 4 || h.Min != 1 || h.Max != 7 || h.Sum != 16 || h.Mean != 4 {
		t.Fatalf("merged hist = %+v", h)
	}
	if o := m.Hists["only_b_hist"]; o.Count != 1 || o.Mean != 9 {
		t.Fatalf("one-sided hist = %+v", o)
	}
	// Merging into the zero snapshot is how sweeps start their accumulator.
	z := (Snapshot{}).Merge(a.Snapshot())
	if z.Counters["reqs"] != 3 || z.Hists["wait"].Count != 2 {
		t.Fatalf("zero-merge = %+v", z)
	}
	// Merge must not mutate its inputs.
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	if sa.Counters["reqs"] != 3 {
		t.Fatal("Merge mutated its receiver")
	}
}

func TestSnapshotMergeQuantilesWeighted(t *testing.T) {
	a := Snapshot{Hists: map[string]HistStat{
		"h": {Count: 1, Sum: 10, Min: 10, Max: 10, Mean: 10, P50: 10, P95: 10, P99: 10},
	}}
	b := Snapshot{Hists: map[string]HistStat{
		"h": {Count: 3, Sum: 6, Min: 1, Max: 3, Mean: 2, P50: 2, P95: 2, P99: 2},
	}}
	h := a.Merge(b).Hists["h"]
	if want := (10.0*1 + 2.0*3) / 4; math.Abs(h.P50-want) > 1e-9 {
		t.Fatalf("P50 = %g, want count-weighted %g", h.P50, want)
	}
	if h.Count != 4 || h.Min != 1 || h.Max != 10 || h.Mean != 4 {
		t.Fatalf("merged = %+v", h)
	}
}

func TestSnapshotRender(t *testing.T) {
	r := NewRegistry()
	r.Add("zeta", 1)
	r.Add("alpha", 2)
	r.Set("g", 3.5)
	r.Observe("h", 1)
	out := r.Snapshot().Render()
	for _, want := range []string{"counters:", "gauges:", "histograms", "alpha", "zeta", "3.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	if (Snapshot{}).Render() != "" {
		t.Fatal("empty snapshot should render to nothing")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
				r.Observe("v", float64(i))
				r.Set("g", float64(i))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 8000 || s.Hists["v"].Count != 8000 {
		t.Fatalf("lost updates: %+v", s.Counters)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil")
	}
	a, b := trace.New(), trace.New()
	if got := Multi(nil, a); got != Sink(a) {
		t.Fatal("single survivor should be returned unwrapped")
	}
	m := Multi(a, b)
	m.BeginState("p", "X", 0)
	m.Point("p", "mark", 5)
	m.EndState("p", 10)
	for _, tr := range []*trace.Tracer{a, b} {
		ev := tr.Events()
		if len(ev) != 2 || ev[0].Name != "X" || ev[0].End != 10 || !ev[1].Point {
			t.Fatalf("fan-out events = %+v", ev)
		}
	}
}

func TestLockedConcurrent(t *testing.T) {
	if Locked(nil) != nil {
		t.Fatal("Locked(nil) should be nil")
	}
	s := Locked(trace.New())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", g)
			for i := 0; i < 200; i++ {
				s.BeginState(proc, "S", des.Time(i))
				s.Point(proc, "m", des.Time(i))
			}
			s.EndState(proc, 200)
		}()
	}
	wg.Wait()
}

func TestStreamSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	s.BeginState("a", "Compute", 0)
	s.BeginState("a", "I/O", 10)
	s.EndState("a", 15)
	s.Point("b", "mark", 7)
	s.BeginState("c", "Sync", 20) // left open: Close must flush it
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]trace.Event{}
	for _, e := range events {
		byKey[e.Proc+"/"+e.Name] = e
	}
	if len(events) != 4 {
		t.Fatalf("events = %d: %+v", len(events), events)
	}
	if e := byKey["a/Compute"]; e.Start != 0 || e.End != 10 {
		t.Fatalf("Compute = %+v", e)
	}
	if e := byKey["a/I/O"]; e.End != 15 {
		t.Fatalf("I/O = %+v", e)
	}
	if e := byKey["b/mark"]; !e.Point || e.Start != 7 {
		t.Fatalf("mark = %+v", e)
	}
	if e := byKey["c/Sync"]; e.Start != 20 || e.End != 20 {
		t.Fatalf("open state should flush with End == begin: %+v", e)
	}
}

// TestStreamSinkMatchesTracer checks the equivalence that makes StreamSink a
// drop-in for the tracer: the same event feed yields the same set of records
// (the stream reorders to completion order, nothing more).
func TestStreamSinkMatchesTracer(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	tr := trace.New()
	feed := func(sink Sink) {
		sink.BeginState("w", "Compute", 0)
		sink.BeginState("w", "I/O", 50)
		sink.EndState("w", 80)
		sink.BeginState("m", "Data Distribution", 0)
		sink.EndState("m", 80)
		sink.Point("w", "flush", 60)
	}
	feed(s)
	feed(tr)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("event count %d vs %d", len(got), len(want))
	}
	seen := map[trace.Event]int{}
	for _, e := range got {
		seen[e]++
	}
	for _, e := range want {
		if seen[e] == 0 {
			t.Fatalf("stream missing event %+v", e)
		}
		seen[e]--
	}
	// Same records, so the rendered Gantt charts agree too.
	if trace.Gantt(got, 40) != trace.Gantt(want, 40) {
		t.Fatal("stream and tracer render different charts")
	}
}

func TestStreamSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", g)
			for i := 0; i < 100; i++ {
				s.BeginState(proc, "S", des.Time(2*i))
				s.EndState(proc, des.Time(2*i+1))
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 800 {
		t.Fatalf("events = %d, want 800", len(events))
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return 0, fmt.Errorf("disk full after %d bytes", w.n)
}

func TestStreamSinkReportsWriteError(t *testing.T) {
	s := NewStreamSink(&failWriter{})
	for i := 0; i < 2000; i++ { // enough to overflow the bufio buffer
		s.Point("p", "m", des.Time(i))
	}
	if err := s.Close(); err == nil {
		t.Fatal("write error swallowed")
	}
}

// TestHandlesShareSeriesWithStringAPI: a handle and the string API address
// one series; resolving a handle records nothing; nil handles are no-ops;
// and a local registry gives the same snapshot as a locked one.
func TestHandlesShareSeriesWithStringAPI(t *testing.T) {
	fill := func(r *Registry) Snapshot {
		c, h := r.Counter("reqs"), r.Hist("lat")
		r.Counter("unused")
		r.Hist("unused")
		c.Add(2)
		r.Add("reqs", 3)
		h.Observe(0.5)
		h.ObserveTime(2 * des.Second)
		r.Observe("lat", 1)
		if !r.Snapshot().Empty() && r.Empty() {
			t.Fatal("Empty disagrees with the snapshot")
		}
		return r.Snapshot()
	}
	s := fill(NewRegistry())
	if s.Counters["reqs"] != 5 || s.Hists["lat"].Count != 3 || s.Hists["lat"].Max != 2 {
		t.Fatalf("handle and string API split the series: %+v", s)
	}
	if _, ok := s.Counters["unused"]; ok {
		t.Fatal("a resolved but unused counter appears in the snapshot")
	}
	if _, ok := s.Hists["unused"]; ok {
		t.Fatal("a resolved but unused histogram appears in the snapshot")
	}
	if l := fill(NewLocalRegistry()); !reflect.DeepEqual(l, s) {
		t.Fatalf("local registry snapshot %+v != locked %+v", l, s)
	}
	var nc *Counter
	var nh *Hist
	nc.Add(1)
	nh.Observe(1)
	nh.ObserveTime(des.Second)
}

// TestWindowedSnapshotMatchesUnwindowed feeds one stream, with event-time
// backfill out of order, into a plain and a windowed registry. A windowed
// registry keeps histograms in its windows alone; its snapshot must agree
// with the plain one on everything but the order Sum is added in.
func TestWindowedSnapshotMatchesUnwindowed(t *testing.T) {
	plain, win := NewLocalRegistry(), NewLocalRegistry()
	now := des.Time(0)
	win.EnableWindows(50*des.Millisecond, func() des.Time { return now })
	x := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	vals := []float64{0, -2.5, math.Inf(1), 1e-310}
	for i := 0; i < 20000; i++ {
		now = des.Time(i) * des.Millisecond / 10
		v := math.Exp(float64(next()%4000)/100 - 20)
		if i%50 < len(vals) {
			v = vals[i%50]
		}
		at := des.Time(next() % uint64(2*des.Second))
		for _, r := range []*Registry{plain, win} {
			switch i % 3 {
			case 0:
				r.Observe("h", v)
			case 1:
				r.ObserveExemplarAt("h", v, int64(i), at)
			default:
				r.AddAt("c", int64(i%7), at)
			}
		}
	}
	win.FreezeWindows(3 * des.Second)
	p, w := plain.Snapshot(), win.Snapshot()
	if err := win.Windows().Conserve(w); err != nil {
		t.Fatal(err)
	}
	ph, wh := p.Hists["h"], w.Hists["h"]
	if ph.Count != wh.Count || ph.Min != wh.Min || ph.Max != wh.Max ||
		ph.P50 != wh.P50 || ph.P95 != wh.P95 || ph.P99 != wh.P99 {
		t.Fatalf("windowed stat %+v != plain %+v", wh, ph)
	}
	if !reflect.DeepEqual(ph.Buckets, wh.Buckets) || !reflect.DeepEqual(ph.Exemplars, wh.Exemplars) {
		t.Fatal("windowed buckets or exemplars differ from plain")
	}
	if !reflect.DeepEqual(p.Counters, w.Counters) {
		t.Fatalf("counters %v != %v", w.Counters, p.Counters)
	}
}

// TestEnableWindowsNeedsEmptyRegistry: windows hold a histogram alone, so
// they must see every observation; enabling them on a registry that holds
// data panics, and Empty reports the precondition.
func TestEnableWindowsNeedsEmptyRegistry(t *testing.T) {
	for name, fill := range map[string]func(r *Registry){
		"counter": func(r *Registry) { r.Add("c", 0) },
		"hist":    func(r *Registry) { r.Observe("h", 1) },
		"gauge":   func(r *Registry) { r.Set("g", 1) },
		"windows": func(r *Registry) { r.EnableWindows(des.Second, nil) },
	} {
		r := NewRegistry()
		r.Counter("resolved only")
		if !r.Empty() {
			t.Fatalf("%s: a registry with only resolved handles is not Empty", name)
		}
		fill(r)
		if r.Empty() {
			t.Fatalf("%s: Empty after recording", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: EnableWindows on a used registry did not panic", name)
				}
			}()
			r.EnableWindows(des.Second, nil)
		}()
	}
}
