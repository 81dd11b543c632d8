// Package causal records happens-before structure alongside a simulation run
// and extracts the critical path from it: the single chain of dependent
// intervals that determines the run's end-to-end virtual time. Every
// nanosecond on that chain is attributed to a category (compute, I/O service,
// I/O queue wait, collective/sync wait, merge/serialization, message transit,
// recovery), with an exact conservation invariant: the per-category sums add
// up to precisely the elapsed virtual time.
//
// The recorder is purely passive. Layers that consume virtual time (the
// simulated MPI, PVFS2, ROMIO, and the search engines) call into it at points
// where time has already been spent; the recorder never sleeps, never posts
// events, and never perturbs the event calendar. A run with a recorder
// attached is therefore event-for-event identical to a run without one.
//
// Import direction: causal depends only on internal/des and internal/trace.
// The instrumented layers (mpi, pvfs, romio, core) import causal, never the
// reverse, so the package can model their behaviour only through the generic
// interval/edge vocabulary below.
package causal

import (
	"fmt"
	"sort"

	"s3asim/internal/des"
	"s3asim/internal/trace"
)

// Category classifies where a span of virtual time went. The names mirror the
// paper's vocabulary: compute dominates CPU-bound runs, io-service and
// io-queue split the PVFS2 server time, sync-wait captures barrier and
// query-sync stalls, merge is the master's (or worker's) result
// merge/serialization cost, transit is wire+NIC time for MPI messages, and
// recovery is time spent in the resilient protocol's timeout/repair paths.
type Category int

const (
	CatCompute Category = iota
	CatMerge
	CatIOQueue
	CatIOService
	CatTransit
	CatSyncWait
	CatRecovery
	CatOther

	// NumCategories is the number of attribution categories.
	NumCategories
)

var catNames = [NumCategories]string{
	"compute", "merge", "io-queue", "io-service",
	"transit", "sync-wait", "recovery", "other",
}

// String returns the stable lowercase name used in every attribution table.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("cat(%d)", int(c))
	}
	return catNames[c]
}

// CategoryNames returns the stable table-header names in category order.
func CategoryNames() []string {
	names := make([]string, NumCategories)
	for i := range catNames {
		names[i] = catNames[i]
	}
	return names
}

// Breakdown is a per-category sum of virtual time.
type Breakdown [NumCategories]des.Time

// Total returns the sum over all categories.
func (b Breakdown) Total() des.Time {
	var t des.Time
	for _, v := range b {
		t += v
	}
	return t
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	for i, v := range other {
		b[i] += v
	}
}

// Segment is one boundary of a local wait decomposition: from At until the
// next segment's At (or the interval end), time is attributed to Cat.
type Segment struct {
	At  des.Time
	Cat Category
}

// intervalKind distinguishes how an interval participates in the walk.
type intervalKind uint8

const (
	kindBusy  intervalKind = iota // proc was doing categorized work
	kindEdge                      // blocked; resolved by a remote cause
	kindChain                     // blocked; locally decomposed into segments
	kindPlain                     // blocked; single category, no remote cause
)

// interval is one recorded span on a process timeline. Timelines are
// append-only and, because each simulated process is sequential and records
// at completion, sorted by both start and end. An interval holds no pointer
// and is 32 bytes, so timelines are storage the GC never scans.
type interval struct {
	start, end des.Time

	// ref and arg are the kind's operands. For kindEdge: the id of the
	// process that released this wait and the time on it to resume the walk
	// from. For kindChain: the offset and length of the interval's boundary
	// decomposition in the recorder's chain arena.
	arg int64
	ref uint32

	cat  uint8 // a Category; unused for kindChain
	kind intervalKind
}

// Flow is one recorded message edge: a payload that left From at Sent and
// arrived at To at Recv. Used for Perfetto flow arrows.
type Flow struct {
	ID         uint64
	Name       string
	From, To   string
	Sent, Recv des.Time
}

// Recorder accumulates per-process interval timelines plus optional message
// flows. It must only be used from inside a single simulation run (the DES
// kernel is single-threaded, so no locking is needed). The zero value is not
// usable; call NewRecorder. All recording methods are safe on a nil receiver
// so instrumentation sites can call unconditionally.
//
// Each process name is interned once to a dense id; timelines are indexed by
// id, and a respawned incarnation (a new des.Proc under the same name) keeps
// extending its predecessor's timeline. Recording sites pass their
// des.Proc, whose ID caches the interned id, so a record hashes no name.
// Chain decompositions share one segment arena.
type Recorder struct {
	ids          map[string]uint32
	names        []string     // id → name, in first-seen order
	timelines    [][]interval // by id; empty for a process seen only as an edge cause
	byProc       []uint32     // des.Proc.ID() → interned id + 1; 0 when not cached
	segs         []Segment    // chain arena (see interval.ref)
	flows        []Flow
	captureFlows bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ids: make(map[string]uint32)}
}

// SetCaptureFlows enables recording of per-message flow edges (Perfetto
// arrows). Off by default: sweeps want attribution, not per-message detail.
func (r *Recorder) SetCaptureFlows(on bool) {
	if r != nil {
		r.captureFlows = on
	}
}

// CapturesFlows reports whether message flows are being recorded.
func (r *Recorder) CapturesFlows() bool { return r != nil && r.captureFlows }

// intern returns name's dense id, assigning the next one on first sight.
func (r *Recorder) intern(name string) uint32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint32(len(r.names))
	r.ids[name] = id
	r.names = append(r.names, name)
	r.timelines = append(r.timelines, nil)
	return id
}

// procID returns p's interned id. The cache is keyed by p.ID() and checked
// against p's name, so a recorder that outlives its simulation's Reset
// still files each record under the right name.
func (r *Recorder) procID(p *des.Proc) uint32 {
	pid := p.ID()
	for len(r.byProc) <= pid {
		r.byProc = append(r.byProc, 0)
	}
	if id := r.byProc[pid]; id != 0 && r.names[id-1] == p.Name() {
		return id - 1
	}
	id := r.intern(p.Name())
	r.byProc[pid] = id + 1
	return id
}

// lookup returns the id of a process with a non-empty timeline.
func (r *Recorder) lookup(name string) (uint32, bool) {
	id, ok := r.ids[name]
	return id, ok && len(r.timelines[id]) > 0
}

// append adds iv to p's timeline; callers have checked iv.end > iv.start.
func (r *Recorder) append(p *des.Proc, iv interval) {
	id := r.procID(p)
	r.timelines[id] = append(r.timelines[id], iv)
}

// Busy records that p actively spent [start, end) on cat work.
func (r *Recorder) Busy(p *des.Proc, cat Category, start, end des.Time) {
	if r == nil || end <= start {
		return
	}
	r.append(p, interval{start: start, end: end, cat: uint8(cat), kind: kindBusy})
}

// WaitEdge records that p was blocked over [start, end) on cat, and that
// the wait was resolved by a causally preceding event on from at fromAt
// (e.g. a message send, or the last arrival at a barrier). The critical-path
// walk attributes [fromAt, end) to cat on p and then continues on from at
// fromAt.
func (r *Recorder) WaitEdge(p *des.Proc, start, end des.Time, cat Category, from *des.Proc, fromAt des.Time) {
	if r == nil || end <= start {
		return
	}
	r.append(p, interval{
		start: start, end: end, cat: uint8(cat), kind: kindEdge,
		ref: r.procID(from), arg: int64(fromAt),
	})
}

// WaitChain records that p was blocked over [start, end) and that the wait
// decomposes locally into the given boundary segments (e.g. a PVFS request's
// transit → queue → service → transit pipeline). Segments are clamped into
// [start, end) and made monotone; uncovered prefixes inherit the first
// segment's category.
func (r *Recorder) WaitChain(p *des.Proc, start, end des.Time, segs []Segment) {
	if r == nil || end <= start {
		return
	}
	if len(segs) == 0 {
		r.append(p, interval{start: start, end: end, cat: uint8(CatOther), kind: kindPlain})
		return
	}
	off := len(r.segs)
	lo := start
	for _, s := range segs {
		at := s.At
		if at < lo {
			at = lo
		}
		if at > end {
			at = end
		}
		r.segs = append(r.segs, Segment{At: at, Cat: s.Cat})
		lo = at
	}
	// Cover [start, first boundary) with the first segment's category.
	r.segs[off].At = start
	r.append(p, interval{start: start, end: end, kind: kindChain,
		ref: uint32(off), arg: int64(len(segs))})
}

// chain returns a kindChain interval's boundary segments.
func (r *Recorder) chain(iv *interval) []Segment {
	return r.segs[iv.ref : int64(iv.ref)+iv.arg]
}

// WaitPlain records that p was blocked over [start, end) on cat with no
// usable remote cause (e.g. waiting out one's own send NIC, or a timeout).
func (r *Recorder) WaitPlain(p *des.Proc, start, end des.Time, cat Category) {
	if r == nil || end <= start {
		return
	}
	r.append(p, interval{start: start, end: end, cat: uint8(cat), kind: kindPlain})
}

// Flow records a message edge for Perfetto arrows. No-op unless
// SetCaptureFlows(true) was called.
func (r *Recorder) Flow(id uint64, name, from, to string, sent, recv des.Time) {
	if r == nil || !r.captureFlows {
		return
	}
	r.flows = append(r.flows, Flow{ID: id, Name: name, From: from, To: to, Sent: sent, Recv: recv})
}

// Flows returns the recorded message edges in arrival order.
func (r *Recorder) Flows() []Flow {
	if r == nil {
		return nil
	}
	return r.flows
}

// FlowEvents converts the recorded flows into paired trace events: for each
// flow, a start event on the sending process at the send time and a finish
// event on the receiving process at the arrival time. The events carry
// Point=true (with Start==End) so every pre-existing renderer skips them;
// only the Perfetto exporter interprets the Flow fields.
func (r *Recorder) FlowEvents() []trace.Event {
	if r == nil || len(r.flows) == 0 {
		return nil
	}
	evs := make([]trace.Event, 0, 2*len(r.flows))
	for _, f := range r.flows {
		evs = append(evs,
			trace.Event{Proc: f.From, Name: f.Name, Start: f.Sent, End: f.Sent, Point: true, Flow: trace.FlowStart, FlowID: f.ID},
			trace.Event{Proc: f.To, Name: f.Name, Start: f.Recv, End: f.Recv, Point: true, Flow: trace.FlowFinish, FlowID: f.ID},
		)
	}
	return evs
}

// Totals aggregates every recorded interval (busy and blocked, across all
// processes) by category. Unlike the critical path this counts parallel work
// multiply, so the total is bounded by procs × elapsed time; it answers
// "where did all processes spend their time", not "what made the run long".
func (r *Recorder) Totals() Breakdown {
	var b Breakdown
	if r == nil {
		return b
	}
	for _, tl := range r.timelines {
		for _, iv := range tl {
			switch iv.kind {
			case kindChain:
				chain := r.chain(&iv)
				for k, seg := range chain {
					hi := iv.end
					if k+1 < len(chain) {
						hi = chain[k+1].At
					}
					b[seg.Cat] += hi - seg.At
				}
			default:
				b[iv.cat] += iv.end - iv.start
			}
		}
	}
	return b
}

// Procs returns the recorded process names, sorted.
func (r *Recorder) Procs() []string {
	if r == nil {
		return nil
	}
	var out []string
	for id, tl := range r.timelines {
		if len(tl) > 0 {
			out = append(out, r.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// Intervals reports the number of recorded intervals, for sizing diagnostics.
func (r *Recorder) Intervals() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, tl := range r.timelines {
		n += len(tl)
	}
	return n
}
