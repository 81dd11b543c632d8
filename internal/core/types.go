// Package core implements the S3aSim engine itself: the master process
// (paper Algorithm 1), the worker processes (Algorithm 2), the four result
// I/O strategies (MW, WW-POSIX, WW-List, WW-Coll), the query-sync option,
// and the per-phase timing decomposition the paper's figures report.
package core

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/obs"
)

// Strategy selects how result data reaches the output file (paper §2).
type Strategy int

const (
	// MW: workers ship scores and full results to the master, which merges
	// and writes each completed query contiguously (mpiBLAST-1.2-like).
	MW Strategy = iota
	// WWPosix: workers write their own results using individual
	// noncontiguous POSIX I/O — one write per result segment.
	WWPosix
	// WWList: workers write their own results using individual
	// noncontiguous list I/O — batched per-server requests (the paper's
	// proposed strategy).
	WWList
	// WWColl: workers write collectively via two-phase MPI-IO
	// (pioBLAST-like).
	WWColl
)

// Strategies lists all strategies in presentation order.
var Strategies = []Strategy{MW, WWPosix, WWList, WWColl}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case MW:
		return "MW"
	case WWPosix:
		return "WW-POSIX"
	case WWList:
		return "WW-List"
	case WWColl:
		return "WW-Coll"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name (as printed by String).
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// WorkerWriting reports whether workers perform the file writes ("parallel
// I/O" in the paper's algorithm listings).
func (s Strategy) WorkerWriting() bool { return s != MW }

// Phase is one of the paper's timing phases (§3).
type Phase int

const (
	PhaseSetup Phase = iota
	PhaseDataDist
	PhaseCompute
	PhaseMerge
	PhaseGather
	PhaseIO
	PhaseSync
	PhaseOther
	NumPhases
)

// PhaseNames maps phases to the paper's labels.
var PhaseNames = [NumPhases]string{
	"Setup", "Data Distribution", "Compute", "Merge Results",
	"Gather Results", "I/O", "Sync", "Other",
}

// String returns the paper's label for the phase.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return PhaseNames[p]
}

// PhaseTimer attributes elapsed virtual time to phases. Exactly one phase
// is current at a time; all blocking inside a phase bills to it, matching
// the paper's instrumentation.
type PhaseTimer struct {
	sim     *des.Simulation
	current Phase
	since   des.Time
	buckets [NumPhases]des.Time
	closed  bool

	sink     obs.Sink // optional: phase transitions become timeline states
	procName string
}

// NewPhaseTimer starts a timer in PhaseOther at the current virtual time.
func NewPhaseTimer(sim *des.Simulation) *PhaseTimer {
	return &PhaseTimer{sim: sim, current: PhaseOther, since: sim.Now()}
}

// Trace attaches a timeline sink (a *trace.Tracer, an obs.StreamSink, or
// any obs.Sink): every phase switch is recorded as a state of the named
// process (the MPE/Jumpshot-style timeline of paper §3).
func (t *PhaseTimer) Trace(sink obs.Sink, procName string) {
	t.sink = sink
	t.procName = procName
	if sink != nil {
		sink.BeginState(procName, t.current.String(), t.since)
	}
}

// Switch bills time since the last switch to the current phase and makes p
// current. Switching to the current phase is a no-op.
func (t *PhaseTimer) Switch(p Phase) {
	if t.closed || p == t.current {
		return
	}
	now := t.sim.Now()
	t.buckets[t.current] += now - t.since
	t.since = now
	t.current = p
	if t.sink != nil {
		t.sink.BeginState(t.procName, p.String(), now)
	}
}

// Finish bills the tail and freezes the timer.
func (t *PhaseTimer) Finish() {
	if t.closed {
		return
	}
	now := t.sim.Now()
	t.buckets[t.current] += now - t.since
	t.since = now
	t.closed = true
	if t.sink != nil {
		t.sink.EndState(t.procName, now)
	}
}

// Buckets returns the per-phase totals.
func (t *PhaseTimer) Buckets() [NumPhases]des.Time { return t.buckets }

// Total returns the sum over all phases.
func (t *PhaseTimer) Total() des.Time {
	var sum des.Time
	for _, b := range t.buckets {
		sum += b
	}
	return sum
}
