package causal

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/trace"
)

const ms = des.Millisecond

// idle is a machine that never runs: the tests record against processes of
// a simulation that is never started.
type idle struct{}

func (idle) Step(*des.Proc) {}

// newProcs returns processes A and B and one that never records, ghost,
// spawned on one simulation.
func newProcs() map[string]*des.Proc {
	sim := des.New()
	procs := map[string]*des.Proc{}
	for _, name := range []string{"A", "B", "ghost"} {
		procs[name] = sim.SpawnFSM(name, idle{})
	}
	return procs
}

// TestWalkFollowsEdges builds the canonical two-process exchange: A computes,
// sends to B at t=10ms; B waits from 2ms, the message lands at 12ms; B then
// computes until 20ms. The path must be: B compute [12,20] ← transit [10,12]
// ← jump to A ← A compute [0,10].
func TestWalkFollowsEdges(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 10*ms)
	r.WaitEdge(p["B"], 2*ms, 12*ms, CatTransit, p["A"], 10*ms)
	r.Busy(p["B"], CatCompute, 12*ms, 20*ms)

	att := r.CriticalPath(20 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if att.EndProc != "B" {
		t.Fatalf("end proc %q, want B", att.EndProc)
	}
	if got := att.ByCat[CatCompute]; got != 18*ms {
		t.Fatalf("compute %v, want 18ms", got)
	}
	if got := att.ByCat[CatTransit]; got != 2*ms {
		t.Fatalf("transit %v, want 2ms", got)
	}
}

// TestWalkChainDecomposition pins the PVFS-style local decomposition.
func TestWalkChainDecomposition(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 4*ms)
	r.WaitChain(p["A"], 4*ms, 20*ms, []Segment{
		{At: 4 * ms, Cat: CatTransit},
		{At: 6 * ms, Cat: CatIOQueue},
		{At: 10 * ms, Cat: CatIOService},
		{At: 18 * ms, Cat: CatTransit},
	})
	att := r.CriticalPath(20 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	want := Breakdown{}
	want[CatCompute] = 4 * ms
	want[CatTransit] = 4 * ms // 2ms out + 2ms back
	want[CatIOQueue] = 4 * ms
	want[CatIOService] = 8 * ms
	if att.ByCat != want {
		t.Fatalf("got %v want %v", att.ByCat, want)
	}
}

// TestWalkGapsGoToOther: uninstrumented time must surface as CatOther, not
// vanish (that would break conservation).
func TestWalkGapsGoToOther(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 2*ms, 5*ms)
	// Gap [0,2), gap [5,8), then a tail beyond the last interval [8,10).
	att := r.CriticalPath(10 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if got := att.ByCat[CatOther]; got != 7*ms {
		t.Fatalf("other %v, want 7ms", got)
	}
	if got := att.ByCat[CatCompute]; got != 3*ms {
		t.Fatalf("compute %v, want 3ms", got)
	}
}

// TestWalkDegenerateEdge: an edge pointing at an unknown process or into the
// future must degrade to a plain wait, never wedge or double-count.
func TestWalkDegenerateEdge(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.WaitEdge(p["A"], 0, 5*ms, CatSyncWait, p["ghost"], 3*ms)
	r.WaitEdge(p["A"], 5*ms, 8*ms, CatTransit, p["A"], 9*ms) // cause after wait end
	att := r.CriticalPath(8 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if att.ByCat[CatSyncWait] != 5*ms || att.ByCat[CatTransit] != 3*ms {
		t.Fatalf("got %v", att.ByCat)
	}
}

// TestWalkEmptyRecorder: a recorder that saw nothing attributes everything
// to CatOther and still conserves.
func TestWalkEmptyRecorder(t *testing.T) {
	att := NewRecorder().CriticalPath(10 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if att.ByCat[CatOther] != 10*ms {
		t.Fatalf("got %v", att.ByCat)
	}
	var nilRec *Recorder
	att = nilRec.CriticalPath(10 * ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBetweenPartitions: windows must partition the path exactly.
func TestBetweenPartitions(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 6*ms)
	r.WaitPlain(p["A"], 6*ms, 10*ms, CatSyncWait)
	att := r.CriticalPath(10 * ms)
	var sum Breakdown
	sum.Add(att.Between(0, 3*ms))
	sum.Add(att.Between(3*ms, 7*ms))
	sum.Add(att.Between(7*ms, 10*ms))
	if sum != att.ByCat {
		t.Fatalf("windows %v != path %v", sum, att.ByCat)
	}
}

// TestFlowEventsPairUp: each flow yields exactly one start and one finish
// event sharing an id, with start no later than finish.
func TestFlowEventsPairUp(t *testing.T) {
	r := NewRecorder()
	r.SetCaptureFlows(true)
	r.Flow(1, "msg.3", "A", "B", 1*ms, 2*ms)
	r.Flow(2, "msg.4", "B", "A", 3*ms, 5*ms)
	evs := r.FlowEvents()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byID := map[uint64][]trace.Event{}
	for _, e := range evs {
		if !e.Point || e.Start != e.End {
			t.Fatalf("flow event must be a point: %+v", e)
		}
		byID[e.FlowID] = append(byID[e.FlowID], e)
	}
	for id, pair := range byID {
		if len(pair) != 2 || pair[0].Flow != trace.FlowStart || pair[1].Flow != trace.FlowFinish {
			t.Fatalf("flow %d does not pair up: %+v", id, pair)
		}
		if pair[0].Start > pair[1].Start {
			t.Fatalf("flow %d finishes before it starts", id)
		}
	}
	// Flows are off by default.
	r2 := NewRecorder()
	r2.Flow(9, "m", "A", "B", 0, ms)
	if len(r2.Flows()) != 0 {
		t.Fatal("flows recorded without SetCaptureFlows")
	}
}

// TestNilRecorderSafe: every recording method must be callable on nil.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	p := newProcs()
	r.Busy(p["A"], CatCompute, 0, ms)
	r.WaitEdge(p["A"], 0, ms, CatTransit, p["B"], 0)
	r.WaitChain(p["A"], 0, ms, nil)
	r.WaitPlain(p["A"], 0, ms, CatOther)
	r.Flow(1, "m", "A", "B", 0, ms)
	r.SetCaptureFlows(true)
	if r.Intervals() != 0 || r.Totals() != (Breakdown{}) || r.Procs() != nil {
		t.Fatal("nil recorder accumulated state")
	}
}

// TestTotalsCountsEverything: Totals aggregates busy and blocked intervals
// across processes, decomposing chains.
func TestTotalsCountsEverything(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 4*ms)
	r.Busy(p["B"], CatCompute, 0, 2*ms)
	r.WaitChain(p["B"], 2*ms, 6*ms, []Segment{
		{At: 2 * ms, Cat: CatIOQueue},
		{At: 5 * ms, Cat: CatIOService},
	})
	tot := r.Totals()
	if tot[CatCompute] != 6*ms || tot[CatIOQueue] != 3*ms || tot[CatIOService] != ms {
		t.Fatalf("got %v", tot)
	}
	if tot.Total() != 10*ms {
		t.Fatalf("total %v", tot.Total())
	}
}

// TestCriticalPathBetweenWindow pins the windowed walker: walking backward
// from (proc, hi) down to lo conserves exactly hi−lo, tiles [lo, hi), and
// follows edges across processes inside the window.
func TestCriticalPathBetweenWindow(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 10*ms)
	r.WaitEdge(p["B"], 2*ms, 12*ms, CatTransit, p["A"], 10*ms)
	r.Busy(p["B"], CatCompute, 12*ms, 20*ms)

	// Full-range window from the furthest proc equals CriticalPath.
	full := r.CriticalPathBetween("", 0, 20*ms)
	ref := r.CriticalPath(20 * ms)
	if full.ByCat != ref.ByCat || full.EndProc != ref.EndProc {
		t.Fatalf("full window %v != CriticalPath %v", full.ByCat, ref.ByCat)
	}

	// Per-query style window: B's completion back to t=5ms. The walk bills
	// B's compute [12,20), transit [10,12), then jumps to A and bills A's
	// compute clamped at the floor: [5,10).
	att := r.CriticalPathBetween("B", 5*ms, 20*ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if att.Total != 15*ms {
		t.Fatalf("total %v, want 15ms", att.Total)
	}
	if att.ByCat[CatCompute] != 13*ms || att.ByCat[CatTransit] != 2*ms {
		t.Fatalf("window breakdown %v", att.ByCat)
	}
	lo, hi := att.Steps[len(att.Steps)-1].Start, att.Steps[0].End
	if lo != 5*ms || hi != 20*ms {
		t.Fatalf("steps span [%v, %v), want [5ms, 20ms)", lo, hi)
	}

	// Explicit start on the non-furthest proc: A's own timeline ends at
	// 10ms, so [10,12) is uninstrumented tail for A.
	attA := r.CriticalPathBetween("A", 0, 12*ms)
	if err := attA.Check(); err != nil {
		t.Fatal(err)
	}
	if attA.ByCat[CatOther] != 2*ms || attA.ByCat[CatCompute] != 10*ms {
		t.Fatalf("explicit-proc walk %v", attA.ByCat)
	}
}

// TestCriticalPathBetweenDegenerate covers empty windows, unknown procs, and
// nil recorders: always conserving, never panicking.
func TestCriticalPathBetweenDegenerate(t *testing.T) {
	r, p := NewRecorder(), newProcs()
	r.Busy(p["A"], CatCompute, 0, 4*ms)
	if att := r.CriticalPathBetween("A", 4*ms, 4*ms); att.Total != 0 {
		t.Fatalf("empty window total %v", att.Total)
	}
	att := r.CriticalPathBetween("nobody", 1*ms, 3*ms)
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	if att.EndProc != "A" || att.ByCat[CatCompute] != 2*ms {
		t.Fatalf("unknown proc should fall back to furthest: %q %v", att.EndProc, att.ByCat)
	}
	var nilRec *Recorder
	if att := nilRec.CriticalPathBetween("A", 0, 2*ms); att.Check() != nil || att.ByCat[CatOther] != 2*ms {
		t.Fatalf("nil recorder window: %+v", att)
	}
	// Negative lo clamps to zero.
	if att := r.CriticalPathBetween("A", -5*ms, 4*ms); att.Total != 4*ms || att.Check() != nil {
		t.Fatalf("negative lo: %+v", att)
	}
}
