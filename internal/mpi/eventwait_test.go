package mpi

import (
	"fmt"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// machineFunc is a state-machine body that runs f on every step; a body
// that never parks finishes after its first step.
type machineFunc func(p *des.Proc)

func (f machineFunc) Step(p *des.Proc) { f(p) }

// eventWaitFSM posts a receive from rank 1, arms one EventWaitOp (with a
// deadline when deadline > 0) and records when and how it ended.
type eventWaitFSM struct {
	r        *Rank
	deadline des.Time
	op       EventWaitOp
	armed    bool
	out      *string
}

func (m *eventWaitFSM) Step(p *des.Proc) {
	if !m.armed {
		m.armed = true
		m.r.Irecv(1, 9)
		armEventWait(&m.op, m.r, m.deadline)
	}
	if !m.op.Step() {
		return
	}
	*m.out = fmt.Sprintf("woke=%v timedOut=%v", m.r.Now(), m.op.TimedOut())
}

func armEventWait(op *EventWaitOp, r *Rank, deadline des.Time) {
	if deadline > 0 {
		op.Init(r, deadline)
	} else {
		op.InitNoDeadline(r)
	}
}

// runEventWait parks rank 0 in one EventWaitOp (FSM or goroutine form),
// with a receive posted, while rank 1 sends it a message at sendAt (never when 0) and a kernel
// callback wakes it out of band at wakeAt (never when 0). It returns the
// wake line and the causal totals.
func runEventWait(fsm bool, deadline, sendAt, wakeAt des.Time) (string, causal.Breakdown) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	rec := causal.NewRecorder()
	w.SetCausal(rec)
	var out string
	if fsm {
		w.SpawnFSM(0, "waiter", &eventWaitFSM{r: w.Rank(0), deadline: deadline, out: &out})
	} else {
		w.Spawn(0, "waiter", func(r *Rank) {
			var op EventWaitOp
			r.Irecv(1, 9)
			armEventWait(&op, r, deadline)
			op.Step()
			out = fmt.Sprintf("woke=%v timedOut=%v", r.Now(), op.TimedOut())
		})
	}
	if sendAt > 0 {
		w.Spawn(1, "sender", func(r *Rank) {
			r.Proc().Sleep(sendAt)
			r.Isend(0, 9, 10, nil)
		})
	}
	if wakeAt > 0 {
		sim.At(wakeAt, func() { w.WakeRank(0) })
	}
	if err := sim.Run(); err != nil {
		out = err.Error()
	}
	return out, rec.Totals()
}

// TestEventWaitOp: an event wait ends at a message arrival (a transit edge
// to the sender), at its deadline (recovery time), or at an out-of-band
// wake (recovery time), and the FSM form replays the goroutine form.
func TestEventWaitOp(t *testing.T) {
	cases := []struct {
		name                     string
		deadline, sendAt, wakeAt des.Time
		want                     string
		transit, recovery        des.Time
	}{
		// 2ms sleep, then 1ms of wire latency plus 10µs on each NIC.
		{name: "message", deadline: 10 * des.Millisecond, sendAt: 2 * des.Millisecond,
			want: "woke=0.003020s timedOut=false", transit: 3020 * des.Microsecond},
		{name: "deadline", deadline: 10 * des.Millisecond,
			want: "woke=0.010000s timedOut=true", recovery: 10 * des.Millisecond},
		{name: "wake-no-deadline", wakeAt: 4 * des.Millisecond,
			want: "woke=0.004000s timedOut=false", recovery: 4 * des.Millisecond},
	}
	for _, tc := range cases {
		for _, fsm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fsm=%v", tc.name, fsm), func(t *testing.T) {
				got, tot := runEventWait(fsm, tc.deadline, tc.sendAt, tc.wakeAt)
				if got != tc.want {
					t.Errorf("%s, want %s", got, tc.want)
				}
				if tot[causal.CatTransit] != tc.transit || tot[causal.CatRecovery] != tc.recovery {
					t.Errorf("causal transit %v recovery %v, want %v and %v",
						tot[causal.CatTransit], tot[causal.CatRecovery], tc.transit, tc.recovery)
				}
			})
		}
	}
}
