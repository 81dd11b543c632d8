package core

import (
	"reflect"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/search"
)

// This file drives the resilient master's bookkeeping functions directly
// on a hand-built rmasterState: the tie order of expiries (the golden runs
// may never produce a tie) and the cost of a wake on which nothing is due.

// testMaster builds a resilient master for one group of n workers (ranks
// 1..n) over nq single-query batches of nf fragments, at virtual time 0,
// with a fault injector whose plan never fires.
func testMaster(n, nq, nf int) (*runtime, *mpi.Rank, *rmasterState) {
	cfg := DefaultConfig()
	cfg.Procs = n + 1
	cfg.Workload.NumFragments = nf
	sim := des.New()
	world := mpi.NewWorld(sim, cfg.Procs, cfg.Net)
	rt := &runtime{cfg: &cfg, sim: sim, world: world, metrics: obs.NewRegistry()}
	rt.faults = fault.NewInjector(sim, &fault.Plan{Seed: 1}, rt.metrics, nil)
	g := &group{masterRank: 0, hiQ: nq}
	for w := 1; w <= n; w++ {
		g.workers = append(g.workers, w)
	}
	for q := 0; q < nq; q++ {
		g.batches = append(g.batches, batch{LoQ: q, HiQ: q + 1})
	}
	return rt, world.Rank(0), rt.newRMasterState(g, NewPhaseTimer(sim))
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
	rt, r, m := testMaster(10, 1, 16)
	for f, w := range []int{5, 2, 9} {
		m.leases[m.slot(w)] = &rlease{t: task{Q: 0, F: f}, extends: rt.cfg.effRetries()}
	}
	m.nextSweep = des.Second
	if d := rt.rmNextDeadline(m); d != 0 {
		t.Fatalf("next deadline %v, want 0 (leases due now)", d)
	}
	rt.rmExpireLeases(r, m)
	want := []task{{Q: 0, F: 1}, {Q: 0, F: 0}, {Q: 0, F: 2}} // ranks 2, 5, 9
	if !reflect.DeepEqual(m.retryQ, want) {
		t.Fatalf("requeue order %v, want %v", m.retryQ, want)
	}
	for _, l := range m.leases {
		if l != nil {
			t.Fatalf("lease %+v left after its final expiry", l)
		}
	}
}

// TestRMasterDebtTieOrder: debts (3,1), (1,2) and (1,0) of one batch fall
// due together. Owed by live workers they are resent, and owed by dead
// ones their tasks are re-dispatched, in (rank, wave) order either way.
func TestRMasterDebtTieOrder(t *testing.T) {
	setup := func() (*runtime, *mpi.Rank, *rmasterState) {
		rt, r, m := testMaster(4, 1, 8)
		rb := m.batches[0]
		rb.sent = true
		m.flushedInit = 1
		// Wave w of rank k carries task (0, 2k+w) with k+w placements, so
		// both the requeued task and the resent size name the debt.
		for _, k := range []debtKey{{3, 1}, {1, 2}, {1, 0}} {
			tk := task{Q: 0, F: 2*k.rank + k.wave}
			m.taskDone[tk] = true
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
		rt.rmNextDeadline(m)
		return rt, r, m
	}

	t.Run("resend", func(t *testing.T) {
		rt, r, m := setup()
		var log sendLog
		rt.world.SetFaultModel(&log)
		rt.rmExpireAcks(r, m)
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
		rt, r, m := setup()
		for _, w := range []int{1, 3} {
			m.live[m.slot(w)] = false
			m.nLive--
		}
		rt.rmExpireAcks(r, m)
		want := []task{{Q: 0, F: 2}, {Q: 0, F: 4}, {Q: 0, F: 7}} // (1,0), (1,2), (3,1)
		if !reflect.DeepEqual(m.retryQ, want) {
			t.Fatalf("re-dispatch order %v, want %v", m.retryQ, want)
		}
		if n := len(m.batches[0].owed); n != 0 {
			t.Fatalf("%d debts left after re-dispatch, want 0", n)
		}
	})
}

// idleMaster is a steady mid-run master at 100ms: 32 live workers each
// holding a task lease, three sent batches still owing acks, the fourth
// batch not yet complete, and no lease or ack due before 1s.
func idleMaster(tb testing.TB) (*runtime, *mpi.Rank, *rmasterState) {
	const workers, sent = 32, 3
	rt, r, m := testMaster(workers, sent+1, workers)
	rt.sim.After(100*des.Millisecond, func() {})
	if err := rt.sim.Run(); err != nil {
		tb.Fatal(err)
	}
	for i := range m.leases {
		m.leases[i] = &rlease{t: task{Q: sent, F: i}, deadline: des.Second + des.Time(i)}
	}
	for bi := 0; bi < sent; bi++ {
		rb := m.batches[bi]
		rb.sent = true
		for w := 1; w <= workers; w += 4 {
			m.owe(rb, rdebt{debtKey: debtKey{rank: w}, deadline: des.Second})
		}
	}
	m.flushedInit = sent
	m.nextSweep = r.Now() + rt.cfg.effDetect()
	return rt, r, m
}

// idleWake runs one master wake's bookkeeping passes.
func idleWake(rt *runtime, r *mpi.Rank, m *rmasterState) {
	rt.rmNextDeadline(m)
	rt.rmSweep(r, m)
	rt.rmExpireLeases(r, m)
	rt.rmExpireAcks(r, m)
	rt.rmFlush(r, m)
	rt.rmCheckStuck(r, m)
}

// TestRMasterIdleWakeAllocs pins that a master wake on which nothing is
// due allocates nothing and changes nothing.
func TestRMasterIdleWakeAllocs(t *testing.T) {
	rt, r, m := idleMaster(t)
	if allocs := testing.AllocsPerRun(100, func() { idleWake(rt, r, m) }); allocs != 0 {
		t.Fatalf("idle master wake allocates %.1f times, want 0", allocs)
	}
	if d := rt.rmNextDeadline(m); d != m.nextSweep || m.due != des.Second {
		t.Fatalf("next deadline %v (due %v), want the sweep at %v and due 1s", d, m.due, m.nextSweep)
	}
	if len(m.retryQ) != 0 || len(m.sends) != 0 || m.nLive != 32 || rt.runErr != nil {
		t.Fatalf("idle wake acted: retryQ %v, %d sends, %d live, err %v",
			m.retryQ, len(m.sends), m.nLive, rt.runErr)
	}
}

// BenchmarkRMasterIdleWake measures one master wake on which nothing is
// due: the deadline scan, the detector sweep, both expiry passes, the
// flush check and the stuck check over 32 workers.
func BenchmarkRMasterIdleWake(b *testing.B) {
	rt, r, m := idleMaster(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idleWake(rt, r, m)
	}
}
