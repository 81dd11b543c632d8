package des

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"unsafe"
)

// evKind tags a calendar entry with its dispatch action. Tagged events are
// the kernel's fast path: Sleep, Signal wakeups, timed waits, and
// Resource.Use schedule plain struct entries with no closure allocation;
// only genuinely ad-hoc callbacks (At, After, Resource.Submit) pay for a
// func value.
type evKind uint8

const (
	// evFunc runs an ad-hoc callback.
	evFunc evKind = iota
	// evResume steps a process: its first Step (SpawnFSM) or its wakeup
	// from Sleep or Resource.Use.
	evResume
	// evWake resumes a single signal waiter (Signal.Signal).
	evWake
	// evBroadcast resumes a FIFO chain of signal waiters in order, all
	// within one calendar entry (Signal.Broadcast).
	evBroadcast
	// evTimer is a WaitUntil deadline. If the waiter already left the wait
	// (the signal won), the entry is a tombstone: it is skipped — the pop
	// still counts as an executed event, exactly like the queued no-op it
	// replaces — and the waiter storage is reclaimed.
	evTimer
)

// funcArg packs a closure into an event operand. A func value is a single
// pointer to its funcval, so the conversion is free and the GC still sees
// (and keeps alive) the closure through the calendar's operand arena.
func funcArg(fn func()) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&fn))
}

// argFunc unpacks a funcArg operand.
func argFunc(arg unsafe.Pointer) func() {
	return *(*func())(unsafe.Pointer(&arg))
}

// Simulation owns the virtual clock, the event calendar, and all processes.
// It is not safe for concurrent use: the kernel steps one process at a time
// on its own goroutine.
type Simulation struct {
	now    Time
	cal    calendar
	seq    uint64
	procs  []*Proc
	events uint64 // total events executed

	procPool   []*Proc   // finished processes available for respawn reuse
	waiterPool []*waiter // waiter free list (see getWaiter/putWaiter)
}

// New returns an empty simulation at time zero.
func New() *Simulation {
	return &Simulation{cal: newCalendar()}
}

// Reset returns the simulation to time zero with an empty calendar and no
// processes, retaining the calendar's storage and the process/waiter free
// lists so a sweep can reuse one Simulation across thousands of runs
// instead of reallocating per cell. A reset simulation is observably
// indistinguishable from a fresh New(): clock, sequence numbers, and event
// counts all restart at zero. Kernel objects created against the previous
// run (signals, gates, resources, processes) must not be used after Reset.
//
// Resetting after a deadlocked run is safe: processes that never finished
// are simply abandoned (their machines become garbage) rather than
// recycled.
func (s *Simulation) Reset() {
	for _, p := range s.procs {
		if p.done {
			s.procPool = append(s.procPool, p)
		}
	}
	s.cal.reset()
	s.procs = s.procs[:0]
	s.now, s.seq, s.events = 0, 0, 0
}

// Now reports the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Events reports how many calendar events have executed so far. Tombstoned
// timers count when their entry pops, just like the no-op events they
// replace.
func (s *Simulation) Events() uint64 { return s.events }

// PendingEvents reports how many calendar entries are currently queued,
// including tombstoned timers that have not reached their deadline yet.
func (s *Simulation) PendingEvents() int { return s.cal.len() }

// Procs reports how many processes are currently registered (done or not);
// zero after a Reset.
func (s *Simulation) Procs() int { return len(s.procs) }

// push schedules a tagged event at absolute time t (clamped to the
// present), assigning the next insertion sequence number. An event at the
// present time goes to the calendar's now lane, any other to its heap.
func (s *Simulation) push(t Time, kind evKind, arg unsafe.Pointer) {
	s.seq++
	if t <= s.now {
		s.cal.pushNow(s.now, s.seq, kind, arg)
		return
	}
	s.cal.push(t, s.seq, kind, arg)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the present.
func (s *Simulation) At(t Time, fn func()) {
	s.push(t, evFunc, funcArg(fn))
}

// After schedules fn to run d from now. Negative d is clamped to zero.
// Callers pass the same few fixed delays (wire latencies) again and again,
// so a positive d goes to the calendar's lane for d.
func (s *Simulation) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	if t := s.now + d; t > s.now {
		s.seq++
		s.cal.pushAfter(d, t, s.seq, evFunc, funcArg(fn))
		return
	}
	s.At(s.now+d, fn)
}

// getWaiter pops a waiter from the free list (or allocates the pool's first
// few) and initializes it for p. Steady-state signal traffic therefore
// allocates nothing.
func (s *Simulation) getWaiter(p *Proc) *waiter {
	if n := len(s.waiterPool); n > 0 {
		w := s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
		*w = waiter{p: p}
		return w
	}
	return &waiter{p: p}
}

// putWaiter returns a waiter to the free list. Callers must ensure no
// calendar entry or wait list still references it (see the timer/queued
// flags on waiter).
func (s *Simulation) putWaiter(w *waiter) {
	*w = waiter{}
	s.waiterPool = append(s.waiterPool, w)
}

// DeadlockError reports that the calendar drained while processes were still
// blocked — every remaining process is waiting for a wakeup that can never
// arrive.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name: reason" for each stuck process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at %v: %d blocked process(es): %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if any spawned process has neither finished nor been
// rescheduled when the calendar drains, and nil otherwise.
// Every 1024 events it yields to the Go scheduler: processes never block
// its goroutine, and without the yield the GC's background worker runs only
// at forced preemption, stretching every mark phase.
func (s *Simulation) Run() error {
	for {
		t, kind, arg, ok := s.cal.pop(endOfTime)
		if !ok {
			break
		}
		s.now = t
		if s.events++; s.events%1024 == 0 {
			runtime.Gosched()
		}
		if kind == evFunc { // fast path: skip the dispatch switch
			argFunc(arg)()
			continue
		}
		s.dispatch(kind, arg)
	}
	var blocked []string
	for _, p := range s.procs {
		if !p.done {
			blocked = append(blocked, p.name+": "+p.blockReason)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: s.now, Blocked: blocked}
	}
	return nil
}

// RunUntil executes events with time ≤ limit, leaving later events queued.
// It reports whether the calendar still holds events past the limit.
func (s *Simulation) RunUntil(limit Time) bool {
	for {
		t, kind, arg, ok := s.cal.pop(limit)
		if !ok {
			break
		}
		s.now = t
		s.events++
		if kind == evFunc {
			argFunc(arg)()
			continue
		}
		s.dispatch(kind, arg)
	}
	return s.cal.len() > 0
}

// dispatch performs a popped event's action. It runs in kernel context.
func (s *Simulation) dispatch(kind evKind, arg unsafe.Pointer) {
	switch kind {
	case evResume:
		s.stepFSM((*Proc)(arg))
	case evFunc:
		argFunc(arg)()
	case evWake:
		w := (*waiter)(arg)
		p := w.p
		w.queued = false
		if !w.timer {
			s.putWaiter(w)
		}
		s.stepFSM(p)
	case evBroadcast:
		// Resume the whole FIFO chain within this one calendar entry. The
		// wake order, and the ordering of any events the woken processes
		// schedule "now", are identical to the per-waiter events the old
		// kernel queued: chained waiters held consecutive sequence numbers,
		// so nothing could interleave between their wakes.
		for w := (*waiter)(arg); w != nil; {
			next := w.next // w may be recycled and reused during stepFSM
			p := w.p
			w.queued = false
			if !w.timer {
				s.putWaiter(w)
			}
			s.stepFSM(p)
			w = next
		}
	case evTimer:
		w := (*waiter)(arg)
		w.timer = false
		if w.p.timer == w {
			w.p.timer = nil
		}
		if w.out {
			// Tombstone: the signal won while this deadline was queued.
			// Reclaim the waiter unless a pending wake still references it.
			if !w.queued {
				s.putWaiter(w)
			}
			return
		}
		w.out = true
		w.timedOut = true
		w.sig.unlink(w)
		s.stepFSM(w.p)
		// The waiter is reclaimed by Proc.TimedOut once it reads timedOut.
	}
}
