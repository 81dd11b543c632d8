package fault

import (
	"fmt"
	"math/rand"

	"s3asim/internal/des"
	"s3asim/internal/obs"
	"s3asim/internal/stats"
)

// faultProc is the timeline-process label fault events are emitted under.
const faultProc = "faults"

// Injector executes a Plan against one simulation. It is created once per
// run, armed before the first process spawns, and consulted by:
//
//   - the engine's workers at protocol checkpoints (ShouldDie/Effect) — a
//     crash takes effect only at a checkpoint, giving fail-stop semantics at
//     protocol boundaries (never inside a barrier or a collective round);
//   - the engine's masters in their failure-detector sweep (DeadAt), which
//     models an out-of-band detector with the sweep period as its latency;
//   - the mpi layer per message (MessageFate) and the pvfs layer per server
//     request (ServiceFactor) — both deterministic because the DES kernel
//     serializes every consultation.
//
// All methods must be called from kernel or process context of the owning
// simulation (single-threaded, like everything else under the DES kernel).
type Injector struct {
	sim  *des.Simulation
	plan *Plan
	rng  *rand.Rand
	sink obs.Sink
	// Counter handles, resolved once in NewInjector; nil (a no-op) without
	// a registry.
	crashes, crashesDiscarded, restarts, msgsDropped, msgsDelayed *obs.Counter

	droppable func(tag int) bool // which tags the Drop events may lose
	appTag    func(tag int) bool // which tags Delay events may touch

	killable   map[int]Event    // rank -> armed crash, not yet effected
	deadAt     map[int]des.Time // rank -> when its crash took effect
	down       map[int]bool     // rank is currently dead (cleared on revive)
	restarting map[int]bool     // rank has a respawn scheduled

	slow    []Event // Slow events, plan order
	degrade []Event // Degrade events, plan order
	drops   []Event // Drop events, plan order
	delays  []Event // Delay events, plan order
}

// subRand derives the injector's deterministic substream from the plan seed.
func subRand(seed int64) *rand.Rand { return stats.SubRand(seed, int64(Drop)) }

// NewInjector binds a plan to a simulation. metrics and sink may be nil.
// A nil plan behaves as an empty one.
func NewInjector(sim *des.Simulation, plan *Plan, metrics *obs.Registry, sink obs.Sink) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	in := &Injector{
		sim:        sim,
		plan:       plan,
		rng:        subRand(plan.Seed),
		sink:       sink,
		killable:   make(map[int]Event),
		deadAt:     make(map[int]des.Time),
		down:       make(map[int]bool),
		restarting: make(map[int]bool),
	}
	if metrics != nil {
		in.crashes = metrics.Counter("fault.crashes")
		in.crashesDiscarded = metrics.Counter("fault.crashes_discarded")
		in.restarts = metrics.Counter("fault.restarts")
		in.msgsDropped = metrics.Counter("fault.msgs_dropped")
		in.msgsDelayed = metrics.Counter("fault.msgs_delayed")
	}
	for _, e := range plan.Events {
		switch e.Kind {
		case Slow:
			in.slow = append(in.slow, e)
		case Degrade:
			in.degrade = append(in.degrade, e)
		case Drop:
			in.drops = append(in.drops, e)
		case Delay:
			in.delays = append(in.delays, e)
		}
	}
	return in
}

// SetTagPolicy installs the engine's message-plane policy: droppable
// reports whether a tag belongs to the retry-protected request/response
// plane (the only messages Drop events may lose); delayable bounds Delay
// events (typically all application tags). Unset policies disable the
// corresponding events.
func (in *Injector) SetTagPolicy(droppable, delayable func(tag int) bool) {
	in.droppable = droppable
	in.appTag = delayable
}

// Arm schedules every crash event. wake is called (in kernel context) with
// the target rank at the crash instant so a blocked-idle rank re-checks its
// checkpoint immediately; the crash takes effect at the target's next
// checkpoint (ShouldDie/Effect). Crash events firing while their target is
// already down are discarded.
func (in *Injector) Arm(wake func(rank int)) {
	for _, e := range in.plan.Events {
		if e.Kind != Crash {
			continue
		}
		e := e
		in.sim.At(e.At, func() {
			if in.down[e.Rank] {
				in.crashesDiscarded.Add(1)
				return
			}
			in.killable[e.Rank] = e
			in.point(fmt.Sprintf("crash-armed rank=%d", e.Rank))
			if wake != nil {
				wake(e.Rank)
			}
		})
	}
}

// Outages returns the plan's server-outage events for the engine to
// schedule against the file system.
func (in *Injector) Outages() []Event {
	var out []Event
	for _, e := range in.plan.Events {
		if e.Kind == Outage {
			out = append(out, e)
		}
	}
	return out
}

// ShouldDie reports whether rank has an armed crash pending. Workers call
// this at every protocol checkpoint.
func (in *Injector) ShouldDie(rank int) bool {
	_, ok := in.killable[rank]
	return ok && !in.down[rank]
}

// Effect consumes rank's armed crash: the rank is now dead, as of the
// current virtual time. It returns the respawn delay (0 = no restart). The
// caller (the dying worker's checkpoint) must unwind the rank's process and,
// if restart > 0, schedule the respawn.
func (in *Injector) Effect(rank int) (restart des.Time) {
	e, ok := in.killable[rank]
	if !ok {
		return 0
	}
	delete(in.killable, rank)
	in.deadAt[rank] = in.sim.Now()
	in.down[rank] = true
	if e.Restart > 0 {
		in.restarting[rank] = true
	}
	in.crashes.Add(1)
	in.point(fmt.Sprintf("crash rank=%d", rank))
	return e.Restart
}

// DeadAt reports when rank's crash took effect, if it is currently dead.
// This is the failure detector's oracle: the master's periodic sweep calls
// it, so detection latency is bounded by the sweep period.
func (in *Injector) DeadAt(rank int) (des.Time, bool) {
	t, ok := in.deadAt[rank]
	return t, ok
}

// Revive marks rank alive again (respawn completed). Stale armed crashes
// from the downtime are discarded.
func (in *Injector) Revive(rank int) {
	delete(in.deadAt, rank)
	delete(in.down, rank)
	delete(in.restarting, rank)
	if _, ok := in.killable[rank]; ok {
		delete(in.killable, rank)
		in.crashesDiscarded.Add(1)
	}
	in.restarts.Add(1)
	in.point(fmt.Sprintf("restart rank=%d", rank))
}

// RestartPending reports whether any currently-dead rank has a respawn
// scheduled — the master uses this to distinguish "wait for the fleet to
// recover" from "no worker will ever come back".
func (in *Injector) RestartPending() bool { return len(in.restarting) > 0 }

// ComputeFactor returns the product of rank's active straggler factors at
// the current virtual time (1 when none).
func (in *Injector) ComputeFactor(rank int) float64 {
	f := 1.0
	now := in.sim.Now()
	for _, e := range in.slow {
		if e.Rank == rank && e.active(now) {
			f *= e.Factor
		}
	}
	return f
}

// ServiceFactor returns the product of the server's active degradation
// factors at the current virtual time (1 when none). It satisfies the pvfs
// layer's ServerFaults interface.
func (in *Injector) ServiceFactor(server int) float64 {
	f := 1.0
	now := in.sim.Now()
	for _, e := range in.degrade {
		if e.Server == server && e.active(now) {
			f *= e.Factor
		}
	}
	return f
}

// MessageFate decides what happens to one message: lost entirely (drop) or
// delivered with extra latency. It satisfies the mpi layer's FaultModel
// interface and is called once per send in deterministic DES order, so the
// RNG stream — and therefore every fate — replays identically.
func (in *Injector) MessageFate(src, dst, tag int, bytes int64) (drop bool, extra des.Time) {
	now := in.sim.Now()
	if in.droppable != nil {
		for _, e := range in.drops {
			if e.Prob > 0 && e.active(now) && in.droppable(tag) {
				if in.rng.Float64() < e.Prob {
					drop = true
				}
			}
		}
	}
	if in.appTag != nil {
		for _, e := range in.delays {
			if e.Prob > 0 && e.active(now) && in.appTag(tag) {
				if in.rng.Float64() < e.Prob {
					extra += e.Extra
				}
			}
		}
	}
	if drop {
		in.msgsDropped.Add(1)
	}
	if extra > 0 {
		in.msgsDelayed.Add(1)
	}
	return drop, extra
}

// point emits an instantaneous timeline marker if a sink is attached.
func (in *Injector) point(name string) {
	if in.sink != nil {
		in.sink.Point(faultProc, name, in.sim.Now())
	}
}
