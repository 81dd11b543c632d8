package des

import (
	"fmt"
	"testing"
)

// TestWaitUntilCalendarDoesNotLeak pins the stale-timer fix: under the
// predicate-loop pattern where every timed wait is won by the signal (the
// resilient protocol's steady state), re-arming at the same deadline must
// revive the one tombstoned timer entry instead of queueing another, so the
// calendar stays bounded no matter how many waits run.
func TestWaitUntilCalendarDoesNotLeak(t *testing.T) {
	for _, fsm := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsm=%v", fsm), func(t *testing.T) {
			const waits = 10000
			s := New()
			cond := s.NewSignal()
			deadline := Time(1) * Hour
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
				s.Spawn("waiter", func(p *Proc) {
					for i := 0; i < waits; i++ {
						if !observe(i, cond.WaitUntil(p, deadline)) {
							return
						}
					}
				})
			}
			s.Spawn("waker", func(p *Proc) {
				for i := 0; i < waits; i++ {
					cond.Signal()
					p.Sleep(Microsecond)
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
	cond     *Signal
	deadline Time
	n, i     int
	parked   bool
	observe  func(i int, ok bool) bool
}

func (m *timedLoopFSM) Step(p *Proc) {
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
	s := New()
	cond := s.NewSignal()
	maxPending := 0
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < waits; i++ {
			if !cond.WaitUntil(p, p.Now()+window*Microsecond) {
				t.Errorf("wait %d timed out; the signal should always win", i)
				return
			}
			if n := s.PendingEvents(); n > maxPending {
				maxPending = n
			}
		}
	})
	s.Spawn("waker", func(p *Proc) {
		for i := 0; i < waits; i++ {
			cond.Signal()
			p.Sleep(Microsecond)
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
	s := New()
	cond := s.NewSignal()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			cond.Wait(p)
			order = append(order, "wake-"+name)
			s.After(0, func() { order = append(order, "post-"+name) })
		})
	}
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(Millisecond)
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
	s := New()
	cond := s.NewSignal()
	wakes := make(map[string]int)
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			cond.Wait(p)
			wakes[name]++
			cond.Wait(p) // re-enter the wait list mid-chain
			wakes[name] += 100
		})
	}
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(1)
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
// the simulation has warmed up (pools populated, goroutine stacks grown).
func kernelSteadyStateAllocs(t *testing.T, s *Simulation, step Time) float64 {
	t.Helper()
	limit := s.Now()
	// Warm-up: populate waiter pool, grow stacks and the calendar.
	for i := 0; i < 64; i++ {
		limit += step
		s.RunUntil(limit)
	}
	return testing.AllocsPerRun(100, func() {
		limit += step
		s.RunUntil(limit)
	})
}

// TestSleepWakeSteadyStateAllocs pins the tentpole's allocation budget: the
// Sleep/resume path must be zero-allocation in steady state.
func TestSleepWakeSteadyStateAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		s.Spawn("p", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state Sleep/wake allocated %.1f/run, want 0", allocs)
	}
}

// TestSignalSteadyStateAllocs pins the Signal wait/signal/broadcast cycle at
// zero allocations once the waiter pool is warm.
func TestSignalSteadyStateAllocs(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) {
			for {
				cond.Wait(p)
			}
		})
	}
	s.Spawn("caster", func(p *Proc) {
		for {
			cond.Broadcast()
			cond.Signal() // no-op half the time; exercises both entry points
			p.Sleep(Microsecond)
		}
	})
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state Signal traffic allocated %.1f/run, want 0", allocs)
	}
}

// TestTimedWaitSteadyStateAllocs pins the WaitUntil re-arm path (timer
// revival) at zero allocations.
func TestTimedWaitSteadyStateAllocs(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	deadline := Time(1) * Hour
	s.Spawn("waiter", func(p *Proc) {
		for cond.WaitUntil(p, deadline) {
		}
	})
	s.Spawn("waker", func(p *Proc) {
		for {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state timed waits allocated %.1f/run, want 0", allocs)
	}
}

// TestFSMTimedWaitSteadyStateAllocs pins the same re-arm path on an FSM
// process — park armed by WaitUntil, outcome read by TimedOut — at zero
// allocations.
func TestFSMTimedWaitSteadyStateAllocs(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	s.SpawnFSM("waiter", &timedLoopFSM{cond: cond, deadline: Hour,
		observe: func(int, bool) bool { return true }})
	s.Spawn("waker", func(p *Proc) {
		for {
			cond.Signal()
			p.Sleep(Microsecond)
		}
	})
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM timed waits allocated %.1f/run, want 0", allocs)
	}
}

// TestResourceUseSteadyStateAllocs pins the blocking Resource path (tagged
// resume + precomputed block reason) at zero allocations.
func TestResourceUseSteadyStateAllocs(t *testing.T) {
	s := New()
	r := s.NewResource("disk", 2)
	for i := 0; i < 4; i++ {
		s.Spawn("client", func(p *Proc) {
			for {
				r.Use(p, Microsecond)
			}
		})
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state Resource.Use allocated %.1f/run, want 0", allocs)
	}
}

// TestResetReuse pins Reset's contract: a reused simulation must produce an
// identical run — same virtual end time, same event count, same results —
// while actually recycling process and waiter storage.
func TestResetReuse(t *testing.T) {
	run := func(s *Simulation) (Time, uint64, int) {
		cond := s.NewSignal()
		done := 0
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn("w", func(p *Proc) {
				p.Sleep(Time(i) * Microsecond)
				cond.Wait(p)
				done++
			})
		}
		s.Spawn("caster", func(p *Proc) {
			p.Sleep(Millisecond)
			cond.Broadcast()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.Events(), done
	}
	fresh := New()
	t1, e1, d1 := run(fresh)

	reused := New()
	run(reused)
	reused.Reset()
	if reused.Now() != 0 || reused.Events() != 0 || reused.PendingEvents() != 0 {
		t.Fatalf("Reset left observable state: now=%v events=%d pending=%d",
			reused.Now(), reused.Events(), reused.PendingEvents())
	}
	if len(reused.procPool) == 0 {
		t.Fatal("Reset recycled no processes; reuse is not exercising the pool")
	}
	t2, e2, d2 := run(reused)
	if t1 != t2 || e1 != e2 || d1 != d2 {
		t.Fatalf("reused kernel diverged: fresh (t=%v events=%d done=%d), reused (t=%v events=%d done=%d)",
			t1, e1, d1, t2, e2, d2)
	}
}

// TestResetAfterDeadlock: a kernel whose previous run deadlocked must still
// be safely reusable — stuck processes are abandoned, not recycled.
func TestResetAfterDeadlock(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	s.Spawn("stuck", func(p *Proc) { cond.Wait(p) })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	s.Reset()
	ran := false
	s.Spawn("ok", func(p *Proc) { p.Sleep(Microsecond); ran = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run after deadlocked Reset: %v", err)
	}
	if !ran {
		t.Fatal("process did not run after Reset")
	}
}
