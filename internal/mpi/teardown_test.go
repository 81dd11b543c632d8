package mpi

import (
	"testing"

	"s3asim/internal/des"
)

// TestExitWithPostedReceives pins the teardown contract the resilient
// protocol relies on: a rank may exit with posted-but-unmatched receives
// (and unread inbox traffic) without wedging the simulation or any peer.
func TestExitWithPostedReceives(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var orphan *Request
	w.Spawn(0, "leaver", func(r *Rank) {
		orphan = r.Irecv(AnySource, 42) // never matched
		r.Compute(des.Millisecond)
		// exit with the receive still posted
	})
	var sendReq *Request
	w.Spawn(1, "peer", func(r *Rank) {
		r.Compute(10 * des.Millisecond)
		sendReq = r.Isend(0, 7, 100, "late") // wrong tag: lands in the inbox
		r.Wait(sendReq)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if orphan.Done() {
		t.Fatal("unmatched posted receive completed spuriously")
	}
	if sendReq.Dropped() {
		t.Fatal("send to an exited (but not killed) rank must still deliver")
	}
}

// TestWaitAnyMixedCompletedCancelled pins that WaitAny treats a cancelled
// request as completed — teardown code draining a mixed request set must
// not block on entries it already cancelled.
func TestWaitAnyMixedCompletedCancelled(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.Spawn(0, "receiver", func(r *Rank) {
		pending := r.Irecv(1, 1) // completes at ~2ms
		doomed := r.Irecv(1, 2)  // never sent
		if !r.Cancel(doomed) {
			t.Error("Cancel on a pending receive returned false")
		}
		qs := []*Request{pending, doomed}
		if i := r.WaitAny(qs); i != 1 {
			t.Errorf("WaitAny = %d, want 1 (the cancelled slot)", i)
		}
		if !doomed.Cancelled() || doomed.Message() != nil {
			t.Error("cancelled request must report Cancelled with nil message")
		}
		// With the cancelled slot nil'd out, WaitAnyUntil must skip it and
		// find the real completion.
		qs[1] = nil
		i, ok := r.WaitAnyUntil(qs, r.Now()+des.Second)
		if !ok || i != 0 {
			t.Errorf("WaitAnyUntil = (%d, %v), want (0, true)", i, ok)
		}
		if got := pending.Message(); got == nil || got.Payload != "ping" {
			t.Errorf("message = %+v", pending.Message())
		}
	})
	w.Spawn(1, "sender", func(r *Rank) {
		r.Send(0, 1, 100, "ping")
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitAnyUntilAllNilTimesOut pins the detector-timer idiom: an all-nil
// request set waits out the deadline and reports no completion.
func TestWaitAnyUntilAllNilTimesOut(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 1, fastNet())
	w.Spawn(0, "timer", func(r *Rank) {
		deadline := r.Now() + 5*des.Millisecond
		i, ok := r.WaitAnyUntil([]*Request{nil, nil}, deadline)
		if ok || i != -1 {
			t.Errorf("WaitAnyUntil = (%d, %v), want (-1, false)", i, ok)
		}
		if r.Now() != deadline {
			t.Errorf("woke at %v, want deadline %v", r.Now(), deadline)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelWithdrawsMatching pins that a cancelled receive can never match
// a later message: the message must flow to the next posted receive.
func TestCancelWithdrawsMatching(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	w.Spawn(0, "receiver", func(r *Rank) {
		first := r.Irecv(1, 3)
		r.Cancel(first)
		if r.Cancel(first) {
			t.Error("second Cancel must be a no-op returning false")
		}
		second := r.Irecv(1, 3)
		if m := r.Wait(second); m.Payload != "v" {
			t.Errorf("payload = %v", m.Payload)
		}
		if first.Message() != nil {
			t.Error("cancelled receive matched a message")
		}
	})
	w.Spawn(1, "sender", func(r *Rank) {
		r.Send(0, 3, 64, "v")
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if cnt := w.MessagesToDead(); cnt != 0 {
		t.Fatalf("MessagesToDead = %d, want 0", cnt)
	}
}

// TestKillTeardownAndRespawn drives the full crash lifecycle the fault
// layer uses: Kill cancels the dying rank's posted receives and discards
// its inbox, sends to the dead rank complete but report Dropped, and
// Respawn revives the rank with a clean slate and a bumped incarnation.
func TestKillTeardownAndRespawn(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var posted, toDead *Request
	var revivedInc int
	w.Spawn(0, "victim", func(r *Rank) {
		posted = r.Irecv(1, 9)
		r.Compute(des.Millisecond)
		w.Kill(0) // the dying rank's own proc tears itself down
	})
	w.Spawn(1, "peer", func(r *Rank) {
		r.Compute(5 * des.Millisecond)
		toDead = r.Isend(0, 9, 100, "to the dead")
		r.Wait(toDead) // eager: completes at the sender NIC, before delivery
		r.Compute(5 * des.Millisecond)
		// The victim's proc is done by now: revive it.
		w.Respawn(0, "revived", machineFunc(func(*des.Proc) {
			r2 := w.Rank(0)
			revivedInc = r2.Incarnation()
			if !r2.Alive() {
				t.Error("respawned rank not alive")
			}
			if r2.Probe(AnySource, AnyTag) {
				t.Error("respawned rank inherited inbox traffic")
			}
		}))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !posted.Cancelled() {
		t.Fatal("Kill must cancel the dying rank's posted receives")
	}
	if !toDead.Dropped() {
		t.Fatal("send to a dead rank must report Dropped once delivery ran")
	}
	if revivedInc != 1 {
		t.Fatalf("incarnation after respawn = %d, want 1", revivedInc)
	}
	if w.MessagesToDead() != 1 {
		t.Fatalf("MessagesToDead = %d, want 1", w.MessagesToDead())
	}
}
