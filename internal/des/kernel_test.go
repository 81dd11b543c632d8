package des_test

import (
	"fmt"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// TestWaitUntilCalendarDoesNotLeak pins the stale-timer fix: under the
// predicate-loop pattern where every timed wait is won by the signal (the
// resilient protocol's steady state), re-arming at the same deadline must
// revive the one tombstoned timer entry instead of queueing another, so the
// calendar stays bounded no matter how many waits run. The waiter runs as a
// hand-written machine (fsm=true) and as a straight-line destest body.
func TestWaitUntilCalendarDoesNotLeak(t *testing.T) {
	for _, fsm := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsm=%v", fsm), func(t *testing.T) {
			const waits = 10000
			s := des.New()
			cond := s.NewSignal()
			deadline := des.Time(1) * des.Hour
			maxPending := 0
			observe := func(i int, ok bool) bool {
				if !ok {
					t.Errorf("wait %d timed out; the signal should always win", i)
					return false
				}
				if n := s.PendingEvents(); n > maxPending {
					maxPending = n
				}
				return true
			}
			if fsm {
				s.SpawnFSM("waiter", &timedLoopFSM{cond: cond, deadline: deadline, n: waits, observe: observe})
			} else {
				destest.Spawn(s, "waiter", func(p *des.Proc) {
					for i := 0; i < waits; i++ {
						if !observe(i, destest.WaitUntil(p, cond, deadline)) {
							return
						}
					}
				})
			}
			destest.Spawn(s, "waker", func(p *des.Proc) {
				for i := 0; i < waits; i++ {
					cond.Signal()
					destest.Sleep(p, des.Microsecond)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// The live set is tiny: the reused timer, the waker's pending
			// sleep, and the in-flight wake. The old kernel accumulated one
			// stale no-op timer per win — ~10000 entries by the end of this
			// loop.
			if maxPending > 8 {
				t.Fatalf("calendar grew to %d pending entries across %d signal-won timed waits, want <= 8",
					maxPending, waits)
			}
		})
	}
}

// timedLoopFSM is a machine that waits on cond with one fixed deadline n
// times (forever when n is 0), handing each outcome to observe; it stops
// when observe returns false.
type timedLoopFSM struct {
	cond     *des.Signal
	deadline des.Time
	n, i     int
	parked   bool
	observe  func(i int, ok bool) bool
}

func (m *timedLoopFSM) Step(p *des.Proc) {
	for m.n == 0 || m.i < m.n {
		if m.parked {
			m.parked = false
			if !m.observe(m.i, !p.TimedOut()) {
				return
			}
			m.i++
			continue
		}
		ok := m.cond.WaitUntil(p, m.deadline)
		if p.Yielded() {
			m.parked = true
			return
		}
		if !m.observe(m.i, ok) {
			return
		}
		m.i++
	}
}

// TestWaitUntilMovingDeadlinesBounded covers the other re-arm shape: every
// wait uses a fresh deadline, so tombstones cannot be revived — they must
// instead be skipped and reclaimed when their deadline arrives, keeping the
// calendar bounded by the deadline window rather than the total wait count.
func TestWaitUntilMovingDeadlinesBounded(t *testing.T) {
	const waits = 5000
	const window = 16 // deadline horizon in waker periods
	s := des.New()
	cond := s.NewSignal()
	maxPending := 0
	destest.Spawn(s, "waiter", func(p *des.Proc) {
		for i := 0; i < waits; i++ {
			if !destest.WaitUntil(p, cond, p.Now()+window*des.Microsecond) {
				t.Errorf("wait %d timed out; the signal should always win", i)
				return
			}
			if n := s.PendingEvents(); n > maxPending {
				maxPending = n
			}
		}
	})
	destest.Spawn(s, "waker", func(p *des.Proc) {
		for i := 0; i < waits; i++ {
			cond.Signal()
			destest.Sleep(p, des.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxPending > 2*window {
		t.Fatalf("calendar grew to %d pending entries, want <= %d (bounded by the deadline window)",
			maxPending, 2*window)
	}
}

// TestBroadcastBatchOrdering pins the determinism contract of the batched
// broadcast: waiters wake in FIFO order, and anything a woken process
// schedules "now" runs after ALL of the chain's wakes — exactly the order
// the old kernel produced with per-waiter events holding consecutive
// sequence numbers.
func TestBroadcastBatchOrdering(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		destest.Spawn(s, name, func(p *des.Proc) {
			destest.Wait(p, cond)
			order = append(order, "wake-"+name)
			s.After(0, func() { order = append(order, "post-"+name) })
		})
	}
	destest.Spawn(s, "caster", func(p *des.Proc) {
		destest.Sleep(p, des.Millisecond)
		order = append(order, "cast")
		cond.Broadcast()
		order = append(order, "cast-returned")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{
		"cast", "cast-returned",
		"wake-a", "wake-b", "wake-c",
		"post-a", "post-b", "post-c",
	})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("broadcast interleaving changed:\n got %s\nwant %s", got, want)
	}
}

// TestBroadcastRewaitNotRewoken: a process that re-waits while the rest of
// the chain is still being resumed must not be woken by the same broadcast.
func TestBroadcastRewaitNotRewoken(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	wakes := make(map[string]int)
	for _, name := range []string{"a", "b"} {
		name := name
		destest.Spawn(s, name, func(p *des.Proc) {
			destest.Wait(p, cond)
			wakes[name]++
			destest.Wait(p, cond) // re-enter the wait list mid-chain
			wakes[name] += 100
		})
	}
	destest.Spawn(s, "caster", func(p *des.Proc) {
		destest.Sleep(p, 1)
		cond.Broadcast()
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected a deadlock: re-waiters must not be re-woken by the same broadcast")
	}
	if wakes["a"] != 1 || wakes["b"] != 1 {
		t.Fatalf("wake counts = %v, want exactly one wake each", wakes)
	}
	if cond.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2 re-entered waiters", cond.Waiters())
	}
}

// kernelSteadyStateAllocs measures allocations of one RunUntil step after
// the simulation has warmed up (pools populated, calendar grown).
func kernelSteadyStateAllocs(t *testing.T, s *des.Simulation, step des.Time) float64 {
	t.Helper()
	limit := s.Now()
	// Warm-up: populate the waiter pool and grow the calendar.
	for i := 0; i < 64; i++ {
		limit += step
		s.RunUntil(limit)
	}
	return testing.AllocsPerRun(100, func() {
		limit += step
		s.RunUntil(limit)
	})
}

// loopFSM calls park n times (forever when n < 0), resuming after each call
// that parked, then calls done if set. park may arm at most one park.
type loopFSM struct {
	n    int
	park func(p *des.Proc)
	done func()
}

func (m *loopFSM) Step(p *des.Proc) {
	for m.n != 0 {
		m.n--
		m.park(p)
		if p.Yielded() {
			return
		}
	}
	if m.done != nil {
		m.done()
	}
}

// forever returns a machine that calls park on every step.
func forever(park func(p *des.Proc)) *loopFSM { return &loopFSM{n: -1, park: park} }

// TestSleepWakeSteadyStateAllocs pins the tentpole's allocation budget: the
// Sleep/resume path must be zero-allocation in steady state, for
// zero-length sleeps (the calendar's now lane) as for 1µs ones (its heap).
func TestSleepWakeSteadyStateAllocs(t *testing.T) {
	s := des.New()
	for i := 0; i < 4; i++ {
		zero := false
		s.SpawnFSM("p", forever(func(p *des.Proc) {
			zero = !zero
			if zero {
				p.Sleep(0)
			} else {
				p.Sleep(des.Microsecond)
			}
		}))
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state Sleep/wake allocated %.1f/run, want 0", allocs)
	}
}

// caster broadcasts and signals cond, then sleeps a microsecond: Signal is
// a no-op half the time, so both entry points are exercised.
func caster(cond *des.Signal) *loopFSM {
	return forever(func(p *des.Proc) {
		cond.Broadcast()
		cond.Signal()
		p.Sleep(des.Microsecond)
	})
}

// TestSignalSteadyStateAllocs pins the Signal wait/signal/broadcast cycle at
// zero allocations once the waiter pool is warm.
func TestSignalSteadyStateAllocs(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	for i := 0; i < 3; i++ {
		s.SpawnFSM("waiter", forever(cond.Wait))
	}
	s.SpawnFSM("caster", caster(cond))
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state Signal traffic allocated %.1f/run, want 0", allocs)
	}
}

// TestTimedWaitSteadyStateAllocs pins broadcast-won timed waits at zero
// allocations: three waiters re-arm the same deadline on every wake, each
// reviving its own tombstoned timer.
func TestTimedWaitSteadyStateAllocs(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	for i := 0; i < 3; i++ {
		s.SpawnFSM("waiter", &timedLoopFSM{cond: cond, deadline: des.Hour,
			observe: func(int, bool) bool { return true }})
	}
	s.SpawnFSM("caster", caster(cond))
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state timed waits allocated %.1f/run, want 0", allocs)
	}
}

// TestFSMTimedWaitSteadyStateAllocs pins the signal-won re-arm path — park
// armed by WaitUntil, outcome read by TimedOut — at zero allocations.
func TestFSMTimedWaitSteadyStateAllocs(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	s.SpawnFSM("waiter", &timedLoopFSM{cond: cond, deadline: des.Hour,
		observe: func(int, bool) bool { return true }})
	s.SpawnFSM("waker", forever(func(p *des.Proc) {
		cond.Signal()
		p.Sleep(des.Microsecond)
	}))
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM timed waits allocated %.1f/run, want 0", allocs)
	}
}

// TestResourceUseSteadyStateAllocs pins the blocking Resource path (tagged
// resume + precomputed block reason) at zero allocations.
func TestResourceUseSteadyStateAllocs(t *testing.T) {
	s := des.New()
	r := s.NewResource("disk", 2)
	for i := 0; i < 4; i++ {
		s.SpawnFSM("client", forever(func(p *des.Proc) { r.Use(p, des.Microsecond) }))
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state Resource.Use allocated %.1f/run, want 0", allocs)
	}
}

// TestResetReuse pins Reset's contract: a reused simulation must produce an
// identical run — same virtual end time, same event count, same results —
// while actually recycling process and waiter storage.
func TestResetReuse(t *testing.T) {
	run := func(s *des.Simulation, spawned map[*des.Proc]bool) (des.Time, uint64, int) {
		cond := s.NewSignal()
		done := 0
		for i := 0; i < 8; i++ {
			i := i
			spawned[destest.Spawn(s, "w", func(p *des.Proc) {
				destest.Sleep(p, des.Time(i)*des.Microsecond)
				destest.Wait(p, cond)
				done++
			})] = true
		}
		destest.Spawn(s, "caster", func(p *des.Proc) {
			destest.Sleep(p, des.Millisecond)
			cond.Broadcast()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.Events(), done
	}
	fresh := des.New()
	t1, e1, d1 := run(fresh, map[*des.Proc]bool{})

	reused := des.New()
	before := map[*des.Proc]bool{}
	run(reused, before)
	reused.Reset()
	if reused.Now() != 0 || reused.Events() != 0 || reused.PendingEvents() != 0 {
		t.Fatalf("Reset left observable state: now=%v events=%d pending=%d",
			reused.Now(), reused.Events(), reused.PendingEvents())
	}
	after := map[*des.Proc]bool{}
	t2, e2, d2 := run(reused, after)
	recycled := 0
	for p := range after {
		if before[p] {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("Reset recycled no processes; reuse is not exercising the pool")
	}
	if t1 != t2 || e1 != e2 || d1 != d2 {
		t.Fatalf("reused kernel diverged: fresh (t=%v events=%d done=%d), reused (t=%v events=%d done=%d)",
			t1, e1, d1, t2, e2, d2)
	}
}

// TestResetAfterDeadlock: a kernel whose previous run deadlocked must still
// be safely reusable — stuck processes are abandoned, not recycled.
func TestResetAfterDeadlock(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	destest.Spawn(s, "stuck", func(p *des.Proc) { destest.Wait(p, cond) })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	s.Reset()
	ran := false
	destest.Spawn(s, "ok", func(p *des.Proc) { destest.Sleep(p, des.Microsecond); ran = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run after deadlocked Reset: %v", err)
	}
	if !ran {
		t.Fatal("process did not run after Reset")
	}
}
