// Package destest runs straight-line test bodies as des processes. A body
// is ordinary sequential Go: it calls the kernel's blocking primitives and
// the layers' resumable ops, and hands control back to the kernel with
// Yield (or Await, Sleep, Wait, WaitUntil) wherever a primitive armed a
// park. Each body runs on its own goroutine; the des.Machine that Machine
// returns resumes it over two channels, so the kernel sees an ordinary
// state machine and schedules it event for event like a hand-written one.
//
// The package is test support. It uses only the public des API, so the
// in-package tests of mpi, pvfs and romio can import it, and no non-test
// package may (make check enforces that).
package destest

import (
	"runtime"

	"s3asim/internal/des"
)

// adapter is the des.Machine behind a straight-line body. The kernel and
// the body's goroutine hand control back and forth over single-slot
// channels, so exactly one of them runs at a time.
type adapter struct {
	body   func(p *des.Proc)
	resume chan struct{} // kernel → body: run until the next park
	yield  chan struct{} // body → kernel: parked, or finished

	started  bool
	finished bool
	panicked bool // the body panicked with panicVal
	panicVal any
	exited   bool // the body called runtime.Goexit (t.FailNow)
}

// Machine returns a des.Machine that runs body as straight-line code.
func Machine(body func(p *des.Proc)) des.Machine {
	return &adapter{body: body, resume: make(chan struct{}, 1), yield: make(chan struct{}, 1)}
}

// Spawn starts body as a process named name on sim.
func Spawn(sim *des.Simulation, name string, body func(p *des.Proc)) *des.Proc {
	return sim.SpawnFSM(name, Machine(body))
}

// Step runs the body until it parks or finishes. A panic in the body is
// raised again here, on the kernel's goroutine, and a runtime.Goexit in
// the body (t.FailNow) ends the kernel's goroutine too. The body's
// goroutine exits when the body returns; a body still parked when its
// simulation is abandoned (after a deadlock) stays blocked on resume.
func (a *adapter) Step(p *des.Proc) {
	if a.finished {
		panic("destest: " + p.Name() + " resumed after its body returned")
	}
	if !a.started {
		a.started = true
		go a.run(p)
	}
	a.resume <- struct{}{}
	<-a.yield
	if a.panicked {
		panic(a.panicVal)
	}
	if a.exited {
		runtime.Goexit()
	}
}

// run is the body's goroutine.
func (a *adapter) run(p *des.Proc) {
	<-a.resume
	returned := false
	defer func() {
		if !returned {
			if v := recover(); v != nil {
				a.panicked, a.panicVal = true, v
			} else {
				a.exited = true
			}
		}
		a.finished = true
		a.yield <- struct{}{}
	}()
	a.body(p)
	if p.Yielded() {
		panic("destest: body of " + p.Name() + " returned with a park armed (missing Yield)")
	}
	returned = true
}

// Yield hands control back to the kernel if the last blocking primitive
// parked p, and returns once the kernel resumes p. Without an armed park
// it returns at once.
func Yield(p *des.Proc) {
	if !p.Yielded() {
		return
	}
	a, ok := p.Machine().(*adapter)
	if !ok {
		panic("destest: Yield on " + p.Name() + ", which is not a destest process")
	}
	a.yield <- struct{}{}
	<-a.resume
}

// Await drives a resumable op to completion: it calls step until step
// reports done, yielding after every call that parked p.
func Await(p *des.Proc, step func() bool) {
	for !step() {
		if !p.Yielded() {
			panic("destest: op step on " + p.Name() + " reported not done without parking")
		}
		Yield(p)
	}
}

// Sleep advances p's virtual time by d.
func Sleep(p *des.Proc, d des.Time) {
	p.Sleep(d)
	Yield(p)
}

// Wait parks p until the next Signal or Broadcast of sig.
func Wait(p *des.Proc, sig *des.Signal) {
	sig.Wait(p)
	Yield(p)
}

// WaitUntil parks p until the next Signal or Broadcast of sig or until the
// absolute time deadline. It reports true if the signal woke p, false on
// a timeout (at once for a deadline at or before the present).
func WaitUntil(p *des.Proc, sig *des.Signal, deadline des.Time) bool {
	if !sig.WaitUntil(p, deadline) {
		return false
	}
	Yield(p)
	return !p.TimedOut()
}
