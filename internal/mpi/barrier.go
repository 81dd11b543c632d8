package mpi

import (
	"s3asim/internal/des"
)

// Barrier is a reusable synchronization point for a fixed group size. The
// release cost models a tree barrier: ceil(log2(n)) network latencies after
// the last arrival. Generation counting makes it safe to reuse immediately.
type Barrier struct {
	w       *World
	n       int
	arrived int
	gen     uint64
	cond    *des.Signal

	// Accounting: total arrivals and the summed wait time across members,
	// useful when attributing synchronization cost.
	epochs uint64

	// Ring of recent epochs' last arrivers (causal recording only): waiters
	// of generation g resolve their wait to an edge at lastArriver[g%len]
	// when that slot still holds g. Old epochs fall off the ring, which is
	// fine — by then no waiter of that generation is still unparked.
	lastArriver [8]barrierEpoch
}

// barrierEpoch remembers who completed a barrier generation and when.
type barrierEpoch struct {
	gen  uint64
	proc *des.Proc
	at   des.Time
	set  bool
}

// NewBarrier creates a barrier for groups of n participants.
func (w *World) NewBarrier(n int) *Barrier {
	if n < 1 {
		protoPanic("NewBarrier", -1, "barrier size must be >= 1")
	}
	return &Barrier{w: w, n: n, cond: w.sim.NewSignal()}
}

// Size returns the current participant count.
func (b *Barrier) Size() int { return b.n }

// Idle reports whether no participant is parked in the current epoch — the
// safe moment to change membership without smearing epochs.
func (b *Barrier) Idle() bool { return b.arrived == 0 }

// Deregister permanently removes one participant (a dead rank) from the
// barrier. If every remaining participant has already arrived, the epoch
// releases immediately — this is what un-wedges survivors parked behind a
// crashed peer. The removed rank must not be parked in the barrier (the
// engine's checkpoint protocol guarantees a rank never dies mid-arrival).
func (b *Barrier) Deregister() {
	if b.n < 1 {
		protoPanic("Barrier.Deregister", -1, "no participants left")
	}
	b.n--
	if b.n > 0 && b.arrived == b.n {
		b.release()
	}
}

// Register adds one participant (a restarted rank). Callers should only
// grow membership while the barrier is Idle; registering mid-epoch makes
// the current epoch wait for the newcomer too.
func (b *Barrier) Register() { b.n++ }

// release completes the current epoch: resets arrivals, advances the
// generation, and wakes the parked participants after the modeled
// fan-in/fan-out delay.
func (b *Barrier) release() {
	b.arrived = 0
	b.gen++
	b.epochs++
	delay := b.releaseDelay()
	b.w.sim.After(delay, func() { b.cond.Broadcast() })
}

// releaseDelay is the modeled fan-in/fan-out cost once everyone arrived.
func (b *Barrier) releaseDelay() des.Time {
	steps := 0
	for v := b.n - 1; v > 0; v >>= 1 {
		steps++
	}
	return des.Time(steps) * b.w.cfg.Latency
}

// Epochs reports how many times the barrier has fully released.
func (b *Barrier) Epochs() uint64 { return b.epochs }
