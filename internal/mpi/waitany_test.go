package mpi

import (
	"fmt"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// waitAnyUntilFSM posts a receive from rank 1 into slot 1 of a two-slot set
// (slot 0 stays nil), runs one deadline WaitAnyOp over it and records how
// it ended.
type waitAnyUntilFSM struct {
	r        *Rank
	deadline des.Time
	qs       []*Request
	op       WaitAnyOp
	armed    bool
	out      *string
}

func (m *waitAnyUntilFSM) Step(p *des.Proc) {
	if !m.armed {
		m.armed = true
		m.qs = []*Request{nil, m.r.Irecv(1, 9)}
		m.op.InitUntil(m.r, m.qs, m.deadline)
	}
	if !m.op.Step() {
		return
	}
	*m.out = waitAnyLine(m.r, m.op.Index, !m.op.TimedOut())
}

func waitAnyLine(r *Rank, index int, ok bool) string {
	return fmt.Sprintf("woke=%v index=%d ok=%v calendar=%d", r.Now(), index, ok, r.w.sim.PendingEvents())
}

// runWaitAnyUntil parks rank 0 in one deadline wait (a hand-written machine
// when fsm is set, else a straight-line body awaiting the op) while rank 1 sends it a message at sendAt (never when 0) and
// out-of-band wakes kick it at each of kicks, which makes it re-scan and
// re-arm the same deadline. It returns the wake line, the causal totals and
// the number of calendar events run.
func runWaitAnyUntil(fsm bool, deadline, sendAt des.Time, kicks ...des.Time) (string, causal.Breakdown, uint64) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	rec := causal.NewRecorder()
	w.SetCausal(rec)
	var out string
	if fsm {
		w.SpawnFSM(0, "waiter", &waitAnyUntilFSM{r: w.Rank(0), deadline: deadline, out: &out})
	} else {
		spawn(w, 0, "waiter", func(r *Rank) {
			var op WaitAnyOp
			op.InitUntil(r, []*Request{nil, r.Irecv(1, 9)}, deadline)
			destest.Await(r.Proc(), op.Step)
			out = waitAnyLine(r, op.Index, !op.TimedOut())
		})
	}
	if sendAt > 0 {
		spawn(w, 1, "sender", func(r *Rank) {
			destest.Sleep(r.Proc(), sendAt)
			r.Isend(0, 9, 10, nil)
		})
	}
	for _, at := range kicks {
		sim.At(at, func() { w.WakeRank(0) })
	}
	if err := sim.Run(); err != nil {
		out = err.Error()
	}
	return out, rec.Totals(), sim.Events()
}

// TestWaitAnyOpDeadline: a deadline wait ends at a completion (a transit
// edge to the sender, skipping the nil slot) or at its deadline (recovery
// time); re-arming the same deadline after a wake revives the tombstoned
// timer rather than queueing a second one; a deadline at or before the
// present ends the wait without parking. The schedule is pinned for both
// ways a process drives the op: from a hand-written machine's Step and from
// a straight-line destest body, which must add no event of its own.
func TestWaitAnyOpDeadline(t *testing.T) {
	ms := des.Millisecond
	cases := []struct {
		name              string
		deadline, sendAt  des.Time
		kicks             []des.Time
		want              string
		transit, recovery des.Time
		events            uint64
	}{
		// 2ms sleep, then 1ms of wire latency plus 10µs on each NIC.
		{name: "completion", deadline: 10 * ms, sendAt: 2 * ms,
			want: "woke=0.003020s index=1 ok=true calendar=1", transit: 3020 * des.Microsecond, events: 8},
		{name: "deadline", deadline: 10 * ms,
			want: "woke=0.010000s index=-1 ok=false calendar=0", recovery: 10 * ms, events: 2},
		// Two kicks re-arm the same deadline: the calendar still holds one
		// timer entry when the wait ends.
		{name: "rearm", deadline: 10 * ms, kicks: []des.Time{3 * ms, 6 * ms},
			want: "woke=0.010000s index=-1 ok=false calendar=0", recovery: 10 * ms, events: 6},
		{name: "rearm-then-completion", deadline: 10 * ms, sendAt: 5 * ms, kicks: []des.Time{3 * ms},
			want: "woke=0.006020s index=1 ok=true calendar=1", transit: 6020 * des.Microsecond, events: 10},
		{name: "deadline-now", deadline: 0,
			want: "woke=0.000000s index=-1 ok=false calendar=0", events: 1},
	}
	for _, tc := range cases {
		for _, fsm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fsm=%v", tc.name, fsm), func(t *testing.T) {
				got, tot, events := runWaitAnyUntil(fsm, tc.deadline, tc.sendAt, tc.kicks...)
				if got != tc.want {
					t.Errorf("%s, want %s", got, tc.want)
				}
				if tot[causal.CatTransit] != tc.transit || tot[causal.CatRecovery] != tc.recovery {
					t.Errorf("causal transit %v recovery %v, want %v and %v",
						tot[causal.CatTransit], tot[causal.CatRecovery], tc.transit, tc.recovery)
				}
				if events != tc.events {
					t.Errorf("%d calendar events, want %d", events, tc.events)
				}
			})
		}
	}
}

// rearmFSM sits in a deadline wait over one never-completing receive and
// re-arms the same far deadline on every wake.
type rearmFSM struct {
	r     *Rank
	qs    []*Request
	op    WaitAnyOp
	armed bool
}

func (m *rearmFSM) Step(p *des.Proc) {
	if !m.armed {
		m.armed = true
		m.qs = append(m.qs, m.r.Irecv(1, 9))
		m.op.InitUntil(m.r, m.qs, des.Time(1<<60))
	}
	if m.op.Step() {
		panic("rearmFSM: the wait ended")
	}
}

// TestWaitAnyOpRearmAllocs pins the timed wait's steady state at zero
// allocations: a wake that finds nothing done re-arms the same deadline by
// reviving its tombstoned timer.
func TestWaitAnyOpRearmAllocs(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.SpawnFSM(0, "waiter", &rearmFSM{r: w.Rank(0)})
	kick := func() {
		w.WakeRank(0)
		sim.RunUntil(sim.Now())
	}
	sim.RunUntil(0)
	for i := 0; i < 4; i++ {
		kick()
	}
	if allocs := testing.AllocsPerRun(100, kick); allocs != 0 {
		t.Fatalf("waking and re-arming a deadline wait allocates %v times, want 0", allocs)
	}
	if n := sim.PendingEvents(); n != 1 {
		t.Fatalf("calendar holds %d entries after the re-arms, want the one timer", n)
	}
}
