package core

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/obs"
)

// Open-loop serving mode (DESIGN.md §13). The paper runs one closed batch:
// every query is available at t=0 and the master deals them out as fast as
// workers ask. A serving run instead gives every query an arrival time — the
// master admits a query only once it has arrived, queues admitted queries
// under a FIFO or shortest-job-first discipline, and idles (draining scores
// and flushing finished batches) when the queue is empty but arrivals
// remain. Every query carries a lifecycle span (arrival → admission → queue
// → dispatch → merge → write → complete) recorded in Report.Queries, the
// raw material for the serve telemetry layer (internal/serve,
// experiments.RunServeSweep).
//
// All serving behavior is gated on Config.Serve != nil: a nil plan runs the
// original closed-batch protocol byte-for-byte.

// ServeAdmission selects the admission-queue discipline of a serving run.
type ServeAdmission int

const (
	// ServeFIFO dispatches admitted queries in arrival order.
	ServeFIFO ServeAdmission = iota
	// ServeSJF dispatches the admitted query with the smallest expected
	// result volume first (shortest-job-first by modeled service demand;
	// ties break toward the earlier arrival).
	ServeSJF
)

// String names the admission discipline.
func (a ServeAdmission) String() string {
	if a == ServeSJF {
		return "sjf"
	}
	return "fifo"
}

// ServePlan switches a run into the open-loop serving scenario.
type ServePlan struct {
	// Arrivals[q] is query q's arrival time; queries are indexed in arrival
	// order, so the slice must be nondecreasing and exactly NumQueries long.
	// Generate schedules with internal/serve.
	Arrivals []des.Time
	// Admission selects the queue discipline.
	Admission ServeAdmission
	// Tenants, when non-empty, names each query's traffic stream (parallel
	// to Arrivals). Per-tenant latency histograms serve.latency.<tenant>
	// are then recorded next to the aggregate serve.latency series.
	Tenants []string
	// SLO is the end-to-end latency target: queries above it count into the
	// serve.slo_violations counter, the numerator of burn-rate alert rules.
	// 0 disables the counter.
	SLO des.Time
}

// tenantOf returns query q's tenant name, or "" without tenant labels.
func (p *ServePlan) tenantOf(q int) string {
	if q < 0 || q >= len(p.Tenants) {
		return ""
	}
	return p.Tenants[q]
}

// QueryStat is one query's recorded lifecycle in a serving run. The stamps
// are nondecreasing: Arrival ≤ Admitted ≤ Dispatched ≤ Gathered ≤
// FlushStart ≤ Done.
type QueryStat struct {
	Q int
	// Arrival is the configured arrival time (ServePlan.Arrivals[Q]).
	Arrival des.Time
	// Admitted is when the master took the query into its admission queue.
	Admitted des.Time
	// Dispatched is when the first fragment task was handed to a worker.
	Dispatched des.Time
	// Gathered is when the master finished merging the last fragment's
	// scores.
	Gathered des.Time
	// FlushStart is when the master initiated the result flush (the MW write
	// or the WW offset-list distribution).
	FlushStart des.Time
	// Done is when the query's results were durably written (the batch
	// flush-time stamp).
	Done des.Time
	// Proc names the process that completed the write — the start anchor
	// for a per-query causal.CriticalPathBetween walk.
	Proc string
}

// Latency is the query's end-to-end latency: arrival to durable result.
func (s QueryStat) Latency() des.Time { return s.Done - s.Arrival }

// serveState is the master-side bookkeeping of a serving run.
type serveState struct {
	plan  *ServePlan
	stats []QueryStat

	nextArr int   // next not-yet-admitted arrival index
	queue   []int // admitted, not-yet-dispatched query indices
	curQ    int   // query currently handing out fragments (-1: none)
	curF    int   // next fragment of curQ

	flushedB []bool // per group-local batch: flush initiated
}

// newServeState builds the bookkeeping for plan (validated by Config).
func newServeState(plan *ServePlan) *serveState {
	sv := &serveState{plan: plan, curQ: -1, stats: make([]QueryStat, len(plan.Arrivals))}
	for q := range sv.stats {
		sv.stats[q] = QueryStat{Q: q, Arrival: plan.Arrivals[q]}
	}
	return sv
}

// admit moves every arrival at or before now into the admission queue.
func (sv *serveState) admit(now des.Time) {
	for sv.nextArr < len(sv.plan.Arrivals) && sv.plan.Arrivals[sv.nextArr] <= now {
		sv.stats[sv.nextArr].Admitted = now
		sv.queue = append(sv.queue, sv.nextArr)
		sv.nextArr++
	}
}

// pick removes the next query from the admission queue per the configured
// discipline and makes it current. Caller guarantees the queue is non-empty.
func (sv *serveState) pick(rt *runtime, now des.Time) {
	best := 0
	if sv.plan.Admission == ServeSJF {
		for i := 1; i < len(sv.queue); i++ {
			if rt.wl.Queries[sv.queue[i]].Bytes < rt.wl.Queries[sv.queue[best]].Bytes {
				best = i
			}
		}
	}
	q := sv.queue[best]
	sv.queue = append(sv.queue[:best], sv.queue[best+1:]...)
	sv.stats[q].Dispatched = now
	sv.curQ, sv.curF = q, 0
}

// Serving-run span states, emitted as per-query timeline tracks (and the
// Perfetto per-query view). Each name owns a distinct legend rune under
// trace.StateRunes.
const (
	serveStateAdmission = "Admission"  // arrival → admitted by the master
	serveStateQueued    = "Queued"     // admitted → first fragment dispatched
	serveStateExecute   = "Execute"    // dispatched → last merge finished
	serveStateWriteWait = "Write Wait" // merged → flush initiated
	serveStateFlush     = "Flush"      // flush initiated → durably written
)

// serveEmitSpans replays every query's lifecycle into the run's sink as one
// track per query, in query order — deterministic, and emitted only after
// the simulation completed so serving instrumentation never perturbs event
// order. Zero-length spans are skipped.
func (rt *runtime) serveEmitSpans(sink obs.Sink) {
	if sink == nil {
		return
	}
	for i := range rt.serve.stats {
		s := &rt.serve.stats[i]
		proc := fmt.Sprintf("query%04d", s.Q)
		spans := [...]struct {
			name     string
			from, to des.Time
		}{
			{serveStateAdmission, s.Arrival, s.Admitted},
			{serveStateQueued, s.Admitted, s.Dispatched},
			{serveStateExecute, s.Dispatched, s.Gathered},
			{serveStateWriteWait, s.Gathered, s.FlushStart},
			{serveStateFlush, s.FlushStart, s.Done},
		}
		for _, sp := range spans {
			if sp.to <= sp.from {
				continue
			}
			sink.BeginState(proc, sp.name, sp.from)
			sink.EndState(proc, sp.to)
		}
		sink.Point(proc, "complete", s.Done)
	}
}

// serveQueryStats finalizes and returns the per-query lifecycle records. A
// query with no results sees no worker write under the WW strategies, so no
// stamp lands; its flush completes the moment it starts (Proc stays empty
// and the causal walk falls back to the furthest-running process).
func (rt *runtime) serveQueryStats() []QueryStat {
	for i := range rt.serve.stats {
		if s := &rt.serve.stats[i]; s.Done < s.FlushStart {
			s.Done = s.FlushStart
		}
	}
	return append([]QueryStat(nil), rt.serve.stats...)
}

// serveRecordMetrics backfills the serving run's per-query metrics into the
// registry in event time: each query's completion counts and its latency is
// observed (with the query ID as exemplar) at its Done stamp, so the
// windowed series resolves when load landed rather than when the run ended.
// Queries are replayed in index (= arrival) order — deterministic, and the
// same fold order every parallelism produces. Must run after serveQueryStats
// has finalized the stamps.
func (rt *runtime) serveRecordMetrics() {
	sv := rt.serve
	m := rt.metrics
	for i := range sv.stats {
		s := &sv.stats[i]
		lat := s.Latency().Seconds()
		m.AddAt("serve.queries", 1, s.Done)
		m.ObserveExemplarAt("serve.latency", lat, int64(s.Q), s.Done)
		if tenant := sv.plan.tenantOf(i); tenant != "" {
			m.ObserveExemplarAt("serve.latency."+tenant, lat, int64(s.Q), s.Done)
		}
		if sv.plan.SLO > 0 && s.Latency() > sv.plan.SLO {
			m.AddAt("serve.slo_violations", 1, s.Done)
		}
	}
}

// validateServe checks the serving plan against the rest of the config.
func (c *Config) validateServe() error {
	s := c.Serve
	if s == nil {
		return nil
	}
	if c.resilient() {
		if !c.Resilient && c.FaultPlan.NeedsResilience() {
			return fmt.Errorf("core: serving mode supports only performance-fault plans (degrade, outage, delay)")
		}
		return fmt.Errorf("core: serving mode is incompatible with the resilient protocol")
	}
	if c.QueryGroups > 1 {
		return fmt.Errorf("core: serving mode requires a single query group")
	}
	if c.QueriesPerWrite != 1 {
		return fmt.Errorf("core: serving mode requires QueriesPerWrite == 1 (per-query flushes)")
	}
	if c.ResumeFromQuery != 0 {
		return fmt.Errorf("core: serving mode cannot resume mid-stream")
	}
	if len(s.Arrivals) != c.Workload.NumQueries {
		return fmt.Errorf("core: serving plan has %d arrivals for %d queries",
			len(s.Arrivals), c.Workload.NumQueries)
	}
	if len(s.Tenants) != 0 && len(s.Tenants) != len(s.Arrivals) {
		return fmt.Errorf("core: serving plan has %d tenant labels for %d queries",
			len(s.Tenants), len(s.Arrivals))
	}
	if s.SLO < 0 {
		return fmt.Errorf("core: serving SLO must be non-negative")
	}
	var prev des.Time
	for i, at := range s.Arrivals {
		if at < prev {
			return fmt.Errorf("core: serving arrivals must be nondecreasing (index %d: %v after %v)",
				i, at, prev)
		}
		prev = at
	}
	return nil
}
