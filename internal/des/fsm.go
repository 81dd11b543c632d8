package des

import "unsafe"

// Machine is a resumable process body: the state-machine alternative to the
// goroutine bodies started by Spawn. The kernel calls Step every time the
// process is scheduled — once for the initial evStart event and once per
// wakeup after that — and a blocked process is just its Machine value plus
// the same pooled wait records goroutine processes use. No goroutine, no
// stack, no channel handoff: parking is a flag and resumption is this method
// call, which is what lets a simulation hold 10⁵–10⁶ idle ranks in a few
// hundred megabytes.
//
// The contract mirrors cooperative blocking, restated for a stackless body:
//
//   - Step runs in kernel context. It must advance the process until it
//     either blocks or finishes, then return. Returning without having
//     blocked marks the process done, exactly like a goroutine body
//     returning.
//   - Blocking primitives (Sleep, Signal.Wait, Gate.Park, Resource.Use)
//     do not block an FSM process; they arm a park and return immediately.
//     After any call that may block, Step must check p.Yielded() and, if
//     true, return — saving enough state (a pc, loop indexes) to resume
//     from that point on the next Step. Calling a second blocking primitive
//     after a park is armed panics: the first wakeup would be lost.
//   - Predicate loops translate mechanically: where a goroutine writes
//     "for !ready() { cond.Wait(p) }", a machine re-checks ready() at the
//     top of its state and re-parks when it still fails. The kernel enqueues
//     the same waiter records in the same order either way, so a ported loop
//     is event-for-event identical to its goroutine form.
//   - Timed waits work the same way: Signal.WaitUntil arms the waiter and
//     its deadline (reviving a tombstoned timer exactly as the goroutine
//     form does) and returns; after the resume, p.TimedOut reports whether
//     the deadline fired and reclaims the waiter. Call it once per resumed
//     timed wait. A deadline at or before the present does not park and
//     WaitUntil reports false.
//   - Gate.Wait hides a predicate loop a stackless body cannot express, so
//     it panics for FSM processes; use Gate.Park with the re-check pattern
//     above.
//
// Machines run only while the kernel dispatches their process, so — like
// goroutine bodies — they need no locking.
type Machine interface {
	Step(p *Proc)
}

// SpawnFSM creates a state-machine process that starts executing at the
// current virtual time (after already-queued events at this time), exactly
// where Spawn would start a goroutine body. The two forms schedule
// identically — same evStart entry, same calendar position — so a simulation
// may mix them freely and replays deterministically either way.
func (s *Simulation) SpawnFSM(name string, m Machine) *Proc {
	if m == nil {
		panic("des: SpawnFSM with nil machine")
	}
	p := s.newProc(name)
	p.machine = m
	s.push(s.now, evStart, unsafe.Pointer(p))
	return p
}

// stepFSM schedules an FSM process: clear the park flag, run the machine
// until it parks or finishes, and retire it when it finishes. This is the
// FSM analogue of transferTo, minus the two channel operations — a direct
// call on the kernel's own stack.
func (s *Simulation) stepFSM(p *Proc) {
	prev := s.curr
	s.curr = p
	p.parked = false
	p.blockReason = ""
	p.machine.Step(p)
	if !p.parked {
		p.machine = nil
		p.done = true
	}
	s.curr = prev
}

// Yielded reports whether the last blocking primitive parked this process.
// Goroutine processes always observe false (they really blocked and have
// resumed by the time they can ask); FSM machines must check it after every
// call that may block and return from Step when it is true.
func (p *Proc) Yielded() bool { return p.parked }
