package core

import (
	"reflect"
	"testing"
	"unsafe"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/search"
)

// This file drives the master's resilient bookkeeping directly on a
// hand-built masterFSM: the tie order of expiries (the golden runs may
// never produce a tie) and the cost of a wake on which nothing is due.

// testMaster builds a resilient master for one group of n workers (ranks
// 1..n) over nq single-query batches of nf fragments, at virtual time 0,
// with a fault injector whose plan never fires.
func testMaster(n, nq, nf int) (*runtime, *masterFSM) {
	cfg := DefaultConfig()
	cfg.Procs = n + 1
	cfg.Workload.NumFragments = nf
	sim := des.New()
	world := mpi.NewWorld(sim, cfg.Procs, cfg.Net)
	rt := &runtime{cfg: &cfg, sim: sim, world: world, metrics: obs.NewRegistry(),
		timers: make([]*PhaseTimer, cfg.Procs)}
	rt.faults = fault.NewInjector(sim, &fault.Plan{Seed: 1}, rt.metrics, nil)
	rt.fm = newFaultMetrics(rt.metrics)
	g := &group{masterRank: 0, hiQ: nq}
	for w := 1; w <= n; w++ {
		g.workers = append(g.workers, w)
	}
	for q := 0; q < nq; q++ {
		g.batches = append(g.batches, batch{LoQ: q, HiQ: q + 1})
	}
	m := rt.newMaster(g, world.Rank(0), true)
	m.pt = NewPhaseTimer(sim)
	return rt, m
}

// sendLog records every message's destination and size, in Isend order.
type sendLog []int64

func (s *sendLog) MessageFate(_, dst, _ int, bytes int64) (bool, des.Time) {
	*s = append(*s, int64(dst), bytes)
	return false, 0
}

// placements is k results of task (q, f).
func placements(q, f, k int) []search.Result {
	out := make([]search.Result, k)
	for i := range out {
		out[i] = search.Result{Query: q, Fragment: f, Size: 100}
	}
	return out
}

// TestRMasterLeaseTieOrder: leases of ranks 5, 2 and 9 run out at the same
// instant with no extension left; their tasks requeue in rank order.
func TestRMasterLeaseTieOrder(t *testing.T) {
	rt, m := testMaster(10, 1, 16)
	for f, w := range []int{5, 2, 9} {
		m.ws[m.slot(w)].lease = &rlease{t: task{Q: 0, F: f}, extends: rt.cfg.effRetries()}
	}
	m.nextSweep = des.Second
	if d := m.nextDeadline(); d != 0 {
		t.Fatalf("next deadline %v, want 0 (leases due now)", d)
	}
	m.expireLeases()
	want := []task{{Q: 0, F: 1}, {Q: 0, F: 0}, {Q: 0, F: 2}} // ranks 2, 5, 9
	if !reflect.DeepEqual(m.retryQ, want) {
		t.Fatalf("requeue order %v, want %v", m.retryQ, want)
	}
	for _, w := range m.ws {
		if w.lease != nil {
			t.Fatalf("lease %+v left after its final expiry", w.lease)
		}
	}
}

// TestRMasterDebtTieOrder: debts (3,1), (1,2) and (1,0) of one batch fall
// due together. Owed by live workers they are resent, and owed by dead
// ones their tasks are re-dispatched, in (rank, wave) order either way.
func TestRMasterDebtTieOrder(t *testing.T) {
	setup := func() (*runtime, *masterFSM) {
		rt, m := testMaster(4, 1, 8)
		rb := m.batches[0]
		m.flushed = 1
		// Wave w of rank k carries task (0, 2k+w) with k+w placements, so
		// both the requeued task and the resent size name the debt.
		for _, k := range []debtKey{{3, 1}, {1, 2}, {1, 0}} {
			tk := task{Q: 0, F: 2*k.rank + k.wave}
			m.taskDone[m.taskIndex(tk)] = true
			m.processed++
			msg := offsetMsg{Wave: k.wave, Placements: placements(tk.Q, tk.F, k.rank+k.wave)}
			m.owe(rb, rdebt{debtKey: k, msg: msg})
		}
		var keys []debtKey
		for _, d := range rb.owed {
			keys = append(keys, d.debtKey)
		}
		if want := []debtKey{{1, 0}, {1, 2}, {3, 1}}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("owed order %v, want %v", keys, want)
		}
		m.nextSweep = des.Second
		m.nextDeadline()
		return rt, m
	}

	t.Run("resend", func(t *testing.T) {
		rt, m := setup()
		var log sendLog
		rt.world.SetFaultModel(&log)
		m.expireAcks()
		size := func(n int) int64 { return offsetHdrBytes + int64(n)*offsetPerResult }
		want := sendLog{1, size(1), 1, size(3), 3, size(4)}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("resends (dest, bytes) %v, want %v", log, want)
		}
		if n := len(m.batches[0].owed); n != 3 {
			t.Fatalf("%d debts left after resending, want 3", n)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		_, m := setup()
		for _, w := range []int{1, 3} {
			m.ws[m.slot(w)].live = false
			m.nLive--
		}
		m.expireAcks()
		want := []task{{Q: 0, F: 2}, {Q: 0, F: 4}, {Q: 0, F: 7}} // (1,0), (1,2), (3,1)
		if !reflect.DeepEqual(m.retryQ, want) {
			t.Fatalf("re-dispatch order %v, want %v", m.retryQ, want)
		}
		if n := len(m.batches[0].owed); n != 0 {
			t.Fatalf("%d debts left after re-dispatch, want 0", n)
		}
	})
}

// idleDue is when the idle master's leases and acks fall due: far enough
// out that no number of detector sweeps reaches it.
const idleDue = des.Time(1 << 60)

// idleMaster is a steady mid-run master parked in its timed wait at
// 100ms: 32 live workers each holding a task lease, three sent batches
// still owing acks, the fourth batch not yet complete, and no lease or ack
// due before idleDue.
func idleMaster(tb testing.TB) (*runtime, *masterFSM) {
	const workers, sent = 32, 3
	rt, m := testMaster(workers, sent+1, workers)
	rt.sim.After(100*des.Millisecond, func() {})
	if err := rt.sim.Run(); err != nil {
		tb.Fatal(err)
	}
	for i := range m.ws {
		m.ws[i].lease = &rlease{t: task{Q: sent, F: i}, deadline: idleDue + des.Time(i)}
	}
	for bi := 0; bi < sent; bi++ {
		rb := m.batches[bi]
		for w := 1; w <= workers; w += 4 {
			m.owe(rb, rdebt{debtKey: debtKey{rank: w}, deadline: idleDue})
		}
	}
	m.flushed = sent
	m.armResilient()
	m.pc = rmHead
	rt.world.SpawnFSM(0, "master0", m)
	rt.sim.RunUntil(rt.sim.Now())
	if m.pc != rmWait {
		tb.Fatalf("master at state %d, want parked in its timed wait", m.pc)
	}
	return rt, m
}

// idleWake runs the master through one detector-sweep wake: the timed wait
// times out, the sweep, both expiry passes, the flush scan and the stuck
// check find nothing to do, and the wait is re-armed.
func idleWake(rt *runtime, m *masterFSM) {
	rt.sim.RunUntil(m.nextSweep)
}

// TestRMasterIdleWakeAllocs pins that a master wake on which nothing is
// due allocates nothing, re-arms the one timed wait, and changes nothing.
func TestRMasterIdleWakeAllocs(t *testing.T) {
	rt, m := idleMaster(t)
	if allocs := testing.AllocsPerRun(100, func() { idleWake(rt, m) }); allocs != 0 {
		t.Fatalf("idle master wake allocates %.1f times, want 0", allocs)
	}
	if d := m.nextDeadline(); d != m.nextSweep || m.due != idleDue {
		t.Fatalf("next deadline %v (due %v), want the sweep at %v and due %v", d, m.due, m.nextSweep, idleDue)
	}
	if n := rt.sim.PendingEvents(); n != 1 || m.pc != rmWait {
		t.Fatalf("%d calendar entries, state %d; want the one timed wait", n, m.pc)
	}
	if len(m.retryQ) != 0 || len(m.sends) != 0 || m.nLive != 32 || rt.runErr != nil {
		t.Fatalf("idle wake acted: retryQ %v, %d sends, %d live, err %v",
			m.retryQ, len(m.sends), m.nLive, rt.runErr)
	}
}

// BenchmarkRMasterIdleWake measures one master wake on which nothing is
// due: the timed wait's timeout and re-arm, the deadline scan, the
// detector sweep, both expiry passes, the flush scan and the stuck check
// over 32 workers.
func BenchmarkRMasterIdleWake(b *testing.B) {
	rt, m := idleMaster(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idleWake(rt, m)
	}
}

// TestScoreMsgIs48Bytes pins the score's size: one is boxed per task, and
// the incarnation field must not push it into the 64-byte size class.
func TestScoreMsgIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(scoreMsg{}); n != 48 {
		t.Fatalf("scoreMsg is %d bytes, want 48", n)
	}
}
