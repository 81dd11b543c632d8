package des

import "unsafe"

// Machine is a process body: a resumable state machine. The kernel calls
// Step every time the process is scheduled — once when it starts and once
// per wakeup after that — and a blocked process is just its Machine value
// plus pooled wait records. No goroutine, no stack: parking is a flag and
// resumption is this method call, which is what lets a simulation hold
// 10⁵–10⁶ idle ranks in a few hundred megabytes.
//
// The contract is cooperative blocking, restated for a stackless body:
//
//   - Step runs in kernel context. It must advance the process until it
//     either blocks or finishes, then return. Returning without having
//     blocked marks the process done.
//   - Blocking primitives (Sleep, Signal.Wait, Signal.WaitUntil, Gate.Park,
//     Resource.Use) arm a park and return immediately. After any call that
//     may block, Step must check p.Yielded() and, if true, return — saving
//     enough state (a pc, loop indexes) to resume from that point on the
//     next Step. Calling a second blocking primitive after a park is armed
//     panics: the first wakeup would be lost.
//   - A predicate loop re-checks its condition at the top of its state and
//     re-parks when it still fails.
//   - Signal.WaitUntil arms the waiter and its deadline and returns; after
//     the resume, p.TimedOut reports whether the deadline fired and reclaims
//     the waiter. Call it once per resumed timed wait. A deadline at or
//     before the present does not park and WaitUntil reports false.
//
// Machines run only while the kernel dispatches their process, so they
// need no locking.
type Machine interface {
	Step(p *Proc)
}

// SpawnFSM creates a process running m that starts at the current virtual
// time, after the events already queued at this time.
func (s *Simulation) SpawnFSM(name string, m Machine) *Proc {
	if m == nil {
		panic("des: SpawnFSM with nil machine")
	}
	p := s.newProc(name)
	p.machine = m
	s.push(s.now, evResume, unsafe.Pointer(p))
	return p
}

// stepFSM schedules a process: clear the park flag, run the machine until
// it parks or finishes, and retire it when it finishes — a direct call on
// the kernel's own stack.
func (s *Simulation) stepFSM(p *Proc) {
	p.parked = false
	p.blockReason = ""
	p.machine.Step(p)
	if !p.parked {
		p.machine = nil
		p.done = true
	}
}

// Yielded reports whether the last blocking primitive parked this process.
// Machines must check it after every call that may block and return from
// Step when it is true.
func (p *Proc) Yielded() bool { return p.parked }

// Machine returns the process's state machine, or nil once it has
// finished.
func (p *Proc) Machine() Machine { return p.machine }
