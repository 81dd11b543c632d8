// Package obs is the unified instrumentation layer: concurrency-safe
// timeline sinks and a per-run metrics registry, the production stand-in for
// the MPE/Jumpshot tooling the original S3aSim leaned on (paper §3).
//
// The package has three pillars:
//
//   - Sink — the timeline-event interface (span begin/end, point markers).
//     The in-memory trace.Tracer satisfies it unchanged; StreamSink writes
//     JSON-lines as events complete; PerfettoSink collects a run and exports
//     Chrome trace-event JSON that opens directly in ui.perfetto.dev.
//   - Registry — counters, gauges, and virtual-time histograms (built on
//     internal/stats), recorded through handles resolved at wiring,
//     populated by the engine, the pvfs layer and the fault injector, and
//     snapshotted into every core.Report. NewRegistry's is
//     concurrency-safe; NewLocalRegistry's, which a run creates for
//     itself, takes no lock.
//   - Snapshot — an immutable view of a Registry that merges
//     deterministically, so sweeps aggregate per-cell metrics in their
//     deterministic cell order and stay bit-identical at any parallelism.
package obs

import (
	"sync"

	"s3asim/internal/des"
	"s3asim/internal/trace"
)

// Sink receives per-process timeline events. BeginState closes the process's
// current state (if any) and opens a new one; EndState closes without
// opening; Point records an instantaneous marker.
//
// The DES kernel is single-threaded, so a sink used by one simulation needs
// no locking — the in-memory trace.Tracer qualifies. A sink shared across
// concurrently running simulations must be concurrency-safe (StreamSink is;
// wrap others with Locked).
type Sink interface {
	BeginState(proc, name string, at des.Time)
	EndState(proc string, at des.Time)
	Point(proc, name string, at des.Time)
}

// The in-memory tracer is the reference Sink implementation.
var _ Sink = (*trace.Tracer)(nil)

// multiSink fans every event out to each member, in order.
type multiSink []Sink

func (m multiSink) BeginState(proc, name string, at des.Time) {
	for _, s := range m {
		s.BeginState(proc, name, at)
	}
}

func (m multiSink) EndState(proc string, at des.Time) {
	for _, s := range m {
		s.EndState(proc, at)
	}
}

func (m multiSink) Point(proc, name string, at des.Time) {
	for _, s := range m {
		s.Point(proc, name, at)
	}
}

// Multi combines sinks into one that forwards every event to each, in
// argument order. Nil entries are dropped; Multi returns nil when nothing
// remains and the sole survivor when only one does.
func Multi(sinks ...Sink) Sink {
	var kept multiSink
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// lockedSink serializes access to an underlying sink.
type lockedSink struct {
	mu sync.Mutex
	s  Sink
}

// Locked wraps a sink with a mutex so it can be shared across concurrently
// running simulations (e.g. one tracer fed by several sweep cells). Event
// order across simulations then depends on goroutine scheduling — prefer
// per-cell sinks (experiments.Options.CellSink) when determinism matters.
func Locked(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &lockedSink{s: s}
}

func (l *lockedSink) BeginState(proc, name string, at des.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.BeginState(proc, name, at)
}

func (l *lockedSink) EndState(proc string, at des.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.EndState(proc, at)
}

func (l *lockedSink) Point(proc, name string, at des.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Point(proc, name, at)
}
