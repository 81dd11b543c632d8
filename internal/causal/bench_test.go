package causal

import (
	"fmt"
	"testing"
	"unsafe"

	"s3asim/internal/des"
)

// rewind empties r's timelines and chain arena, keeping their storage, so
// the benchmarks and the allocation test append into grown storage within
// a bounded working set.
func rewind(r *Recorder) {
	for i := range r.timelines {
		r.timelines[i] = r.timelines[i][:0]
	}
	r.segs = r.segs[:0]
}

// benchProcs spawns n processes on one simulation that is never started.
func benchProcs(n int) []*des.Proc {
	sim := des.New()
	ps := make([]*des.Proc, n)
	for i := range ps {
		ps[i] = sim.SpawnFSM(fmt.Sprintf("rank %d", i), idle{})
	}
	return ps
}

// recordRound is one round of the three hot recording calls across ps, the
// shape a benchmark cell produces: a compute interval, a transit edge from
// the previous process, and a pvfs request's four-stage chain.
func recordRound(r *Recorder, ps []*des.Proc, t des.Time) {
	for i, p := range ps {
		r.Busy(p, CatCompute, t, t+2)
		r.WaitEdge(p, t+2, t+4, CatTransit, ps[(i+len(ps)-1)%len(ps)], t+1)
		r.WaitChain(p, t+4, t+9, []Segment{
			{At: t + 4, Cat: CatTransit}, {At: t + 5, Cat: CatIOQueue},
			{At: t + 6, Cat: CatIOService}, {At: t + 8, Cat: CatTransit},
		})
	}
}

func TestIntervalIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(interval{}); n != 32 {
		t.Fatalf("interval is %d bytes, want 32", n)
	}
}

// TestSteadyAppendsAllocs pins that recording into grown storage allocates
// nothing: interning is cached by process, and chains go to the shared
// arena rather than a slice of their own.
func TestSteadyAppendsAllocs(t *testing.T) {
	r, ps := NewRecorder(), benchProcs(16)
	for k := 0; k < 64; k++ {
		recordRound(r, ps, des.Time(10*k))
	}
	allocs := testing.AllocsPerRun(100, func() {
		rewind(r)
		for k := 0; k < 64; k++ {
			recordRound(r, ps, des.Time(10*k))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady appends allocated %.1f times per run, want 0", allocs)
	}
}

// TestRespawnSharesTimeline: a respawned incarnation (a new des.Proc under
// the same name) extends its predecessor's timeline, and a recorder that
// outlives its simulation's Reset files records by name, not by a stale
// process id.
func TestRespawnSharesTimeline(t *testing.T) {
	sim := des.New()
	a1 := sim.SpawnFSM("A", idle{})
	b := sim.SpawnFSM("B", idle{})
	a2 := sim.SpawnFSM("A", idle{})
	r := NewRecorder()
	r.Busy(a1, CatCompute, 0, 4*ms)
	r.WaitEdge(b, 0, 6*ms, CatTransit, a1, 4*ms)
	r.Busy(a2, CatRecovery, 6*ms, 9*ms)
	if got := r.Procs(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("procs %v, want [A B]", got)
	}
	att := r.CriticalPathBetween("A", 0, 9*ms)
	want := Breakdown{}
	want[CatRecovery] = 3 * ms
	want[CatOther] = 2 * ms // the gap between A's two incarnations
	want[CatCompute] = 4 * ms
	if att.ByCat != want {
		t.Fatalf("walk over both incarnations: got %v want %v", att.ByCat, want)
	}

	sim.Reset()
	c := sim.SpawnFSM("C", idle{}) // takes a1's process id
	if c.ID() != a1.ID() {
		t.Fatalf("reset simulation gave C id %d, want %d", c.ID(), a1.ID())
	}
	r.Busy(c, CatMerge, 9*ms, 10*ms)
	if got := r.Procs(); len(got) != 3 || got[2] != "C" {
		t.Fatalf("procs after reset %v, want [A B C]", got)
	}
}

func BenchmarkRecorderBusy(b *testing.B) {
	r, ps := NewRecorder(), benchProcs(16)
	for i := 0; i < 4096; i++ {
		r.Busy(ps[i%16], CatCompute, des.Time(i), des.Time(i+1))
	}
	rewind(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			rewind(r)
		}
		r.Busy(ps[i%16], CatCompute, des.Time(i), des.Time(i+1))
	}
}

func BenchmarkRecorderWaitEdge(b *testing.B) {
	r, ps := NewRecorder(), benchProcs(16)
	for i := 0; i < 4096; i++ {
		r.WaitEdge(ps[i%16], des.Time(i), des.Time(i+2), CatTransit, ps[(i+1)%16], des.Time(i+1))
	}
	rewind(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			rewind(r)
		}
		r.WaitEdge(ps[i%16], des.Time(i), des.Time(i+2), CatTransit, ps[(i+1)%16], des.Time(i+1))
	}
}

func BenchmarkRecorderWaitChain(b *testing.B) {
	r, ps := NewRecorder(), benchProcs(16)
	chain := func(i int) {
		t := des.Time(i)
		r.WaitChain(ps[i%16], t, t+5, []Segment{
			{At: t, Cat: CatTransit}, {At: t + 1, Cat: CatIOQueue},
			{At: t + 2, Cat: CatIOService}, {At: t + 4, Cat: CatTransit},
		})
	}
	for i := 0; i < 4096; i++ {
		chain(i)
	}
	rewind(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			rewind(r)
		}
		chain(i)
	}
}
