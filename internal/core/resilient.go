package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// This file implements the master side of the self-healing protocol
// (DESIGN.md §9: fail-stop workers, task leases, a detector sweep, write-ack
// debts, recovery waves, and collective taint-and-fallback) — masterFSM's
// rm* states — plus the runtime glue the resilient roles share. It runs
// instead of the plain loop whenever the configuration carries a fault
// plan (or Resilient is forced), with workerFSM's resilient loop on the
// worker side, so the original protocol stays byte-for-byte untouched — the
// empty-plan bit-identity guarantee.

// fail records the first unrecoverable failure; RunWithWorkload surfaces it
// after the simulation drains.
func (rt *runtime) fail(err error) {
	if rt.runErr == nil {
		rt.runErr = err
	}
}

// faultMetrics holds the resilient protocol's metric handles, resolved
// when a resilient run is wired (nil handles, which record nothing,
// otherwise).
type faultMetrics struct {
	tasksDuplicate, tasksReexecuted, workersDetected, workersRejoined *obs.Counter
	collFallbacks, leaseExtensions, leaseExpirations                  *obs.Counter
	offsetResends, bytesRewritten, requestResends, staleReplies       *obs.Counter
	detectionLatency                                                  *obs.Hist
}

func newFaultMetrics(r *obs.Registry) faultMetrics {
	return faultMetrics{
		tasksDuplicate:   r.Counter("fault.tasks_duplicate"),
		tasksReexecuted:  r.Counter("fault.tasks_reexecuted"),
		workersDetected:  r.Counter("fault.workers_detected"),
		workersRejoined:  r.Counter("fault.workers_rejoined"),
		collFallbacks:    r.Counter("fault.coll_fallbacks"),
		leaseExtensions:  r.Counter("fault.lease_extensions"),
		leaseExpirations: r.Counter("fault.lease_expirations"),
		offsetResends:    r.Counter("fault.offset_resends"),
		bytesRewritten:   r.Counter("fault.bytes_rewritten"),
		requestResends:   r.Counter("fault.request_resends"),
		staleReplies:     r.Counter("fault.stale_replies"),
		detectionLatency: r.Hist("fault.detection_latency"),
	}
}

// rlease is the master's outstanding-task record for one worker.
type rlease struct {
	t        task
	deadline des.Time
	extends  int // lease extensions granted while the worker stayed live
}

// debtKey identifies one owed ack: a rank can owe several waves of the same
// batch at once (an un-acked wave 0 plus a recovery wave it now owns).
type debtKey struct {
	rank, wave int
}

// rdebt is one owed write acknowledgement: the offset message sent and when
// to act if the ack has not arrived.
type rdebt struct {
	debtKey
	msg      offsetMsg
	deadline des.Time
	dead     bool // owner died; deadline is now the ack grace period
}

// rbatch tracks one batch's durability in the resilient protocol. Initial
// waves go out in batch order, so batch bi is sent once bi < m.flushed.
type rbatch struct {
	durable  bool
	wave     int           // highest wave sent so far
	owed     []rdebt       // outstanding acks, in (rank, wave) order
	recovery map[task]bool // re-dispatched tasks this sent batch still needs
}

// debtAt locates debt k in owed, or the position that keeps owed in
// (rank, wave) order.
func (b *rbatch) debtAt(k debtKey) (int, bool) {
	return slices.BinarySearchFunc(b.owed, k, func(d rdebt, k debtKey) int {
		return cmp.Or(cmp.Compare(d.rank, k.rank), cmp.Compare(d.wave, k.wave))
	})
}

// rworker is the resilient master's record of one worker slot.
type rworker struct {
	live, idle bool
	syncMember bool // counted in the query-sync barrier
	incarn     int
	lease      *rlease // nil: no task outstanding
	lastSeq    int
	lastReply  workReplyMsg
}

// resilientState is the resilient protocol's bookkeeping on top of the
// master's shared state. Per-worker records are indexed by slot, so a range
// visits ranks in ascending order without sorting.
type resilientState struct {
	retryQ  []task // re-dispatches, served before fresh tasks
	retries []int  // per task: times it was lost

	ws          []rworker
	nLive       int
	pendingJoin []int // ranks

	batches     []*rbatch
	durableTo   int // batches[:durableTo] are durable (see nextDeadline)
	collTainted bool

	workReq  *mpi.Request
	scoreReq *mpi.Request
	ackReq   *mpi.Request
	finReq   *mpi.Request
	finWait  []bool // shutdown: slots that still owe a fin

	nextSweep des.Time
	// due is at or before every lease and ack deadline: nextDeadline sets
	// it to the exact minimum and arm lowers it for each deadline set since,
	// so the expiry passes can return at once while now < due.
	due des.Time
}

// armResilient posts the persistent receives and schedules the first
// detector sweep.
func (m *masterFSM) armResilient() {
	r := m.r
	m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
	m.scoreReq = r.Irecv(mpi.AnySource, tagScores)
	m.ackReq = r.Irecv(mpi.AnySource, tagWriteAck)
	m.nextSweep = r.Now() + m.rt.cfg.effDetect()
}

// arm notes a lease or ack deadline set after nextDeadline ran.
func (m *masterFSM) arm(d des.Time) { m.due = min(m.due, d) }

// owe records an ack debt in rb, keeping owed in (rank, wave) order.
func (m *masterFSM) owe(rb *rbatch, d rdebt) {
	if i, found := rb.debtAt(d.debtKey); found {
		rb.owed[i] = d
	} else {
		rb.owed = slices.Insert(rb.owed, i, d)
	}
	m.arm(d.deadline)
}

// stepResilient runs the resilient protocol's states: Algorithm 1's
// distribution and gather/merge/flush flow, wrapped in leases, a
// failure-detector sweep, re-dispatch, ack-tracked durability, and an
// explicit shutdown handshake replacing the global final barrier.
func (m *masterFSM) stepResilient() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	switch m.pc {
	case rmHead:
		if m.rmDone() {
			m.startShutdown()
			return true
		}
		m.pt.Switch(PhaseDataDist)
		m.waitSet = append(m.waitSet[:0], m.workReq, m.scoreReq, m.ackReq)
		m.waitAny.InitUntil(r, m.waitSet, m.nextDeadline())
		m.pc = rmWait
	case rmWait:
		if !m.waitAny.Step() {
			return false
		}
		m.pc = rmDrain
	case rmDrain:
		// Consume the completed persistent receives one at a time, in fixed
		// priority order, reposting each. Scores drain before work requests:
		// a worker's score precedes its next request on the wire, and
		// handling the request first would misread the still-queued score
		// as lost and requeue an already-finished task.
		switch {
		case m.scoreReq.Done():
			// Drop a score from a dead or superseded incarnation: its
			// death already requeued the task, and the rank will never
			// write placements merged for it. Otherwise clear the task's
			// lease, then merge the report unless it is a duplicate from a
			// re-executed task.
			msg := m.scoreReq.Message()
			m.scoreReq = r.Irecv(mpi.AnySource, tagScores)
			sm := msg.Payload.(scoreMsg)
			ws := &m.ws[m.slot(msg.Source)]
			if !ws.live || int(sm.Inc) < ws.incarn {
				return true
			}
			if ws.lease != nil && ws.lease.t == sm.Task {
				ws.lease = nil
			}
			if m.taskDone[m.taskIndex(sm.Task)] {
				rt.fm.tasksDuplicate.Add(1)
				return true
			}
			m.startMerge(msg)
			m.pc = rmMerged
			return false
		case m.ackReq.Done():
			// Clear one owed write acknowledgement.
			msg := m.ackReq.Message()
			m.ackReq = r.Irecv(mpi.AnySource, tagWriteAck)
			am := msg.Payload.(ackMsg)
			b := m.batches[am.Batch]
			if i, found := b.debtAt(debtKey{rank: msg.Source, wave: am.Wave}); found {
				b.owed = slices.Delete(b.owed, i, i+1)
			}
		case m.workReq.Done():
			msg := m.workReq.Message()
			m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
			m.handleWorkReq(msg)
		default:
			if r.Now() >= m.nextSweep {
				m.sweep()
				m.nextSweep = r.Now() + cfg.effDetect()
			}
			m.expireLeases()
			m.expireAcks()
			m.startFlush(rmFlushed)
		}
	case rmMerged:
		// If the task was a recovery task of a sent batch, the flush notices
		// the whole recovery set is re-completed and ships the next wave.
		m.finishMerge()
		m.pc = rmDrain
	case rmFlushed:
		m.sends = retireDone(m.sends)
		m.checkStuck()
		m.pc = rmHead
	case rmShutHead:
		if !slices.Contains(m.finWait, true) {
			m.waitAll.Init(r, m.sends)
			m.pc = rmShutSends
			return true
		}
		m.waitSet = append(m.waitSet[:0], m.finReq, m.workReq)
		m.waitAny.InitUntil(r, m.waitSet, r.Now()+cfg.effDetect())
		m.pc = rmShutWait
	case rmShutWait:
		if !m.waitAny.Step() {
			return false
		}
		for m.finReq.Done() {
			src := m.finReq.Message().Source
			m.finReq = r.Irecv(mpi.AnySource, tagFin)
			m.finWait[m.slot(src)] = false
		}
		for m.workReq.Done() {
			// A late revival: order it down too; it fins before exiting.
			msg := m.workReq.Message()
			m.workReq = r.Irecv(mpi.AnySource, tagWorkRequest)
			rq := msg.Payload.(workReqMsg)
			if i := m.slot(msg.Source); rq.Inc > m.ws[i].incarn {
				m.ws[i].incarn = rq.Inc
				m.finWait[i] = true
				m.sends = append(m.sends,
					r.Isend(msg.Source, tagControl, ctlMsgBytes, ctlMsg{Shutdown: true}))
			}
		}
		for i := range m.finWait {
			if _, dead := rt.faults.DeadAt(m.g.workers[i]); dead {
				m.finWait[i] = false
			}
		}
		m.pc = rmShutHead
	case rmShutSends:
		if !m.waitAll.Step() {
			return false
		}
		m.sends = nil
		for _, q := range [...]*mpi.Request{m.workReq, m.scoreReq, m.ackReq, m.finReq} {
			r.Cancel(q)
		}
		if rt.runErr != nil {
			m.pt.Finish()
			return false
		}
		// Every live worker has finned and every batch is durable — the
		// readback-under-chaos verification point: prove the recovered
		// image content-matches the workload despite crashes, outages, and
		// drops.
		m.startPostRun()
	}
	return true
}

// rmDone reports whether everything is scheduled, processed, and durable —
// or the run has been declared unrecoverable.
func (m *masterFSM) rmDone() bool {
	if m.rt.runErr != nil {
		return true
	}
	if m.processed != m.totalTasks || m.flushed != len(m.g.batches) {
		return false
	}
	for _, b := range m.batches {
		if !b.durable {
			return false
		}
	}
	return true
}

// nextDeadline picks the earliest of the detector sweep, lease expiries,
// and ack-debt expiries — the master's next forced wake-up — and caches the
// earliest lease or debt deadline in m.due.
func (m *masterFSM) nextDeadline() des.Time {
	m.due = math.MaxInt64
	for i := range m.ws {
		if l := m.ws[i].lease; l != nil {
			m.arm(l.deadline)
		}
	}
	// Durability is final and a durable batch owes nothing, so the scan
	// starts past the durable prefix.
	for m.durableTo < len(m.batches) && m.batches[m.durableTo].durable {
		m.durableTo++
	}
	for _, b := range m.batches[m.durableTo:] {
		for j := range b.owed {
			m.arm(b.owed[j].deadline)
		}
	}
	return min(m.nextSweep, m.due)
}

// handleWorkReq serves one work request: revival detection, duplicate
// (resent) request replay, lost-score recovery, and task assignment. The
// reply is droppable; the worker resends its request on timeout.
func (m *masterFSM) handleWorkReq(msg *mpi.Message) {
	rt, r := m.rt, m.r
	w := msg.Source
	ws := &m.ws[m.slot(w)]
	rq := msg.Payload.(workReqMsg)
	if rq.Inc < ws.incarn {
		return // in-flight leftover from an incarnation already superseded
	}
	if rq.Inc > ws.incarn {
		// A restarted worker whose death we may never have observed:
		// retire the old incarnation's state first, then welcome it back.
		if ws.live {
			m.declareDead(w, r.Now())
		}
		*ws = rworker{live: true, incarn: rq.Inc, syncMember: ws.syncMember}
		m.nLive++
		if rt.cfg.QuerySync && !ws.syncMember {
			m.pendingJoin = append(m.pendingJoin, w)
		}
		rt.fm.workersRejoined.Add(1)
	}
	if !ws.live {
		return // a message from a dead incarnation still in flight
	}
	if rq.Seq == ws.lastSeq {
		// Resent request (our reply was lost): replay the same reply and
		// refresh the lease.
		if l := ws.lease; l != nil {
			l.deadline = r.Now() + rt.cfg.effLease()
			m.arm(l.deadline)
		}
	} else {
		if l := ws.lease; l != nil {
			// New request while a task lease is outstanding: the score was
			// lost in flight. Re-dispatch the leased task.
			ws.lease = nil
			if !m.taskDone[m.taskIndex(l.t)] {
				m.requeue(l.t, true)
			}
		}
		rep := workReplyMsg{Seq: rq.Seq, Flushed: m.flushed}
		rep.T, rep.Has = m.nextTask()
		if ws.idle = !rep.Has; rep.Has {
			ws.lease = &rlease{t: rep.T, deadline: r.Now() + rt.cfg.effLease()}
			m.arm(ws.lease.deadline)
		}
		ws.lastSeq, ws.lastReply = rq.Seq, rep
	}
	m.sends = append(m.sends, r.Isend(w, tagWorkReply, replyMsgBytes, ws.lastReply))
}

// sweep is the failure-detector pass: observe effected crashes.
func (m *masterFSM) sweep() {
	for i := range m.ws {
		if diedAt, dead := m.rt.faults.DeadAt(m.g.workers[i]); m.ws[i].live && dead {
			m.declareDead(m.g.workers[i], diedAt)
		}
	}
}

// declareDead retires a worker: lease requeue, barrier and collective
// deregistration, WW-Coll taint, and ack-grace arming for its debts.
func (m *masterFSM) declareDead(w int, diedAt des.Time) {
	rt, g := m.rt, m.g
	cfg := rt.cfg
	now := m.r.Now()
	ws := &m.ws[m.slot(w)]
	if !ws.live {
		return
	}
	ws.live, ws.idle = false, false
	m.nLive--
	rt.fm.workersDetected.Add(1)
	rt.fm.detectionLatency.ObserveTime(now - diedAt)
	if s := cfg.Sink; s != nil {
		s.Point("faults", fmt.Sprintf("detected-dead rank=%d", w), now)
	}
	if ws.syncMember {
		g.querySyn.Deregister()
		ws.syncMember = false
	}
	if cfg.Strategy == WWColl {
		if !m.collTainted {
			m.collTainted = true
			rt.fm.collFallbacks.Add(1)
		}
		if cfg.CollMethod == romio.TwoPhase {
			g.collEntry.Deregister()
		}
		g.collGroup.Deregister(w)
	}
	if l := ws.lease; l != nil {
		ws.lease = nil
		if !m.taskDone[m.taskIndex(l.t)] {
			m.requeue(l.t, true)
		}
	}
	// Its outstanding write acks get a grace period: a write completed just
	// before death still delivers its (reliable) ack; only silence after
	// the grace implies the wave was never written.
	grace := now + cfg.effLease()
	for _, b := range m.batches {
		for j := range b.owed {
			if d := &b.owed[j]; d.rank == w {
				d.dead = true
				d.deadline = grace
				m.arm(grace)
			}
		}
	}
	// Scored results for batches whose offset lists were never sent died
	// with the worker's memory (WW strategies only — under MW the master
	// holds the merged data): re-dispatch those tasks now.
	if cfg.Strategy.WorkerWriting() && m.flushed < len(g.batches) {
		for q := g.batches[m.flushed].LoQ; q < g.hiQ; q++ {
			for f, owner := range m.assigned[q-g.loQ] {
				if t := (task{Q: q, F: f}); owner == w && m.taskDone[m.taskIndex(t)] {
					m.requeueScored(t)
				}
			}
		}
	}
}

// requeue re-dispatches a task and nudges idle workers so someone picks it
// up. A lost task (its holder died, or its score or written wave was lost)
// counts against MaxTaskRetries; a speculative re-dispatch away from a
// live holder that is still computing does not.
func (m *masterFSM) requeue(t task, lost bool) {
	rt := m.rt
	if lost {
		ti := m.taskIndex(t)
		m.retries[ti]++
		if m.retries[ti] > rt.cfg.effRetries() {
			rt.fail(fmt.Errorf("core: task q%d/f%d lost %d times (MaxTaskRetries=%d)",
				t.Q, t.F, m.retries[ti], rt.cfg.effRetries()))
			return
		}
	}
	m.retryQ = append(m.retryQ, t)
	rt.fm.tasksReexecuted.Add(1)
	// Poke every idle worker: there is work again.
	for i := range m.ws {
		if m.ws[i].idle {
			m.sends = append(m.sends, m.r.Isend(m.g.workers[i], tagControl, ctlMsgBytes, ctlMsg{}))
			m.ws[i].idle = false
		}
	}
}

// requeueScored un-completes a task whose results were lost before
// becoming durable. If its batch's initial wave is already out, the task
// joins the batch's recovery set (its re-computed placements ship as the
// next wave); an unsent batch simply re-includes it in wave 0 later.
func (m *masterFSM) requeueScored(t task) {
	ti := m.taskIndex(t)
	if !m.taskDone[ti] {
		return
	}
	qi := t.Q - m.g.loQ
	m.taskDone[ti] = false
	m.processed--
	m.remaining[qi]++
	m.complete[qi] = false
	if bi := qi / m.rt.cfg.QueriesPerWrite; bi < m.flushed {
		m.batches[bi].recovery[t] = true
	}
	m.requeue(t, true)
}

// expireLeases acts on tasks whose lease ran out. A live worker is most
// likely still computing a long task — crashes are caught by the detector
// sweep and lost scores by the next work request — so its lease is extended
// (each time doubling the grant) up to effRetries times before the task is
// speculatively re-dispatched; only that final expiry treats the worker as
// an undeclarable straggler. A late duplicate score is suppressed by
// taskDone either way.
func (m *masterFSM) expireLeases() {
	cfg := m.rt.cfg
	now := m.r.Now()
	if now < m.due {
		return
	}
	for i := range m.ws {
		l := m.ws[i].lease
		if l == nil || l.deadline > now {
			continue
		}
		if m.ws[i].live && l.extends < cfg.effRetries() {
			l.extends++
			l.deadline = now + cfg.effLease()<<l.extends
			m.arm(l.deadline)
			m.rt.fm.leaseExtensions.Add(1)
			continue
		}
		m.ws[i].lease = nil
		if !m.taskDone[m.taskIndex(l.t)] {
			m.rt.fm.leaseExpirations.Add(1)
			m.requeue(l.t, !m.ws[i].live)
		}
	}
}

// expireAcks acts on overdue write acks: resend the wave to a live owner
// (it deduplicates and re-acks), or — after the death grace — declare the
// wave lost and re-dispatch the tasks behind its placements.
func (m *masterFSM) expireAcks() {
	cfg := m.rt.cfg
	now := m.r.Now()
	if now < m.due {
		return
	}
	for _, b := range m.batches {
		for j := 0; j < len(b.owed); j++ {
			d := b.owed[j]
			if d.deadline > now {
				continue
			}
			if i := m.slot(d.rank); d.dead || !m.ws[i].live || d.msg.Inc != m.ws[i].incarn {
				b.owed = slices.Delete(b.owed, j, j+1)
				j--
				for _, t := range placementTasks(d.msg.Placements) {
					m.requeueScored(t)
				}
				continue
			}
			b.owed[j].deadline = now + cfg.effLease()
			m.arm(b.owed[j].deadline)
			m.sendOffsets(d.rank, d.msg)
			m.rt.fm.offsetResends.Add(1)
		}
	}
}

// placementTasks lists the distinct (query, fragment) tasks behind a
// placement list, in (query, fragment) order.
func placementTasks(placements []search.Result) []task {
	out := make([]task, len(placements))
	for i, res := range placements {
		out[i] = task{Q: res.Query, F: res.Fragment}
	}
	slices.SortFunc(out, func(a, b task) int { return cmp.Or(cmp.Compare(a.Q, b.Q), cmp.Compare(a.F, b.F)) })
	return slices.Compact(out)
}

// rmStartBatch starts batch m.bi's initial flush: the master write (true:
// in flight) under MW, or wave-0 offset lists with ack debts under WW.
func (m *masterFSM) rmStartBatch() bool {
	rt, g := m.rt, m.g
	cfg := rt.cfg
	// Safe moment to grow the sync barrier: admit revived workers only
	// between epochs.
	if cfg.QuerySync && len(m.pendingJoin) > 0 && g.querySyn.Idle() {
		for _, w := range m.pendingJoin {
			if i := m.slot(w); m.ws[i].live && !m.ws[i].syncMember {
				g.querySyn.Register()
				m.ws[i].syncMember = true
			}
		}
		m.pendingJoin = nil
	}
	if cfg.Strategy == MW {
		m.startWriteMW()
		return true
	}
	rb := m.batches[m.bi]
	m.buildOffsets(nil)
	m.pt.Switch(PhaseGather)
	deadline := m.r.Now() + cfg.effLease()
	for i, ws := range m.ws {
		if !ws.live {
			continue
		}
		w := g.workers[i]
		msg := offsetMsg{
			Batch:      m.bi,
			Placements: m.perWorker[i],
			Inc:        ws.incarn,
			Fallback:   m.collTainted,
			Sync:       cfg.QuerySync && ws.syncMember,
		}
		m.sendOffsets(w, msg)
		m.owe(rb, rdebt{debtKey: debtKey{rank: w}, msg: msg, deadline: deadline})
	}
	return false
}

// rmNotifyMW follows the master's write of batch m.bi with sync tokens;
// the batch is durable.
func (m *masterFSM) rmNotifyMW() {
	if m.rt.cfg.QuerySync {
		for i, ws := range m.ws {
			if ws.live {
				tk := tokMsg{Batch: m.bi, Inc: ws.incarn, Sync: ws.syncMember}
				m.sends = append(m.sends, m.r.Isend(m.g.workers[i], tagSyncToken, tokenMsgBytes, tk))
			}
		}
	}
	m.batches[m.bi].durable = true
}

// sendRecoveryWaves re-sends the recovered placements of every sent batch
// whose re-dispatched tasks have all re-completed, as the batch's next
// wave, then marks durable every sent batch that owes nothing.
func (m *masterFSM) sendRecoveryWaves() {
	cfg := m.rt.cfg
	for bi, rb := range m.batches[:m.flushed] {
		if rb.durable || len(rb.recovery) == 0 || !m.recovered(rb) {
			continue
		}
		rb.wave++
		m.bi = bi
		m.buildOffsets(rb.recovery)
		deadline := m.r.Now() + cfg.effLease()
		for i, placements := range m.perWorker {
			if len(placements) == 0 {
				continue
			}
			w := m.g.workers[i]
			msg := offsetMsg{
				Batch:      bi,
				Placements: placements,
				Wave:       rb.wave,
				Inc:        m.ws[i].incarn,
				Fallback:   cfg.Strategy == WWColl,
			}
			m.sendOffsets(w, msg)
			m.owe(rb, rdebt{debtKey: debtKey{rank: w, wave: rb.wave}, msg: msg, deadline: deadline})
			var bytes int64
			for _, res := range placements {
				bytes += res.Size
			}
			m.rt.fm.bytesRewritten.Add(bytes)
		}
		clear(rb.recovery)
	}
	for _, rb := range m.batches[:m.flushed] {
		if !rb.durable && len(rb.owed) == 0 && len(rb.recovery) == 0 {
			rb.durable = true
		}
	}
}

// recovered reports whether every re-dispatched task of rb has re-completed.
func (m *masterFSM) recovered(rb *rbatch) bool {
	for t := range rb.recovery {
		if !m.taskDone[m.taskIndex(t)] {
			return false
		}
	}
	return true
}

// checkStuck declares the run unrecoverable when work remains but no
// worker is alive and none will restart.
func (m *masterFSM) checkStuck() {
	rt := m.rt
	if rt.runErr != nil || m.rmDone() || m.nLive > 0 || rt.faults.RestartPending() {
		return
	}
	rt.fail(fmt.Errorf("core: group %d has unfinished work but no live workers and no pending restart",
		m.g.index))
}

// startShutdown replaces the global final barrier: order every live worker
// to exit, then collect their fins (sweeping for deaths in between).
func (m *masterFSM) startShutdown() {
	r := m.r
	m.pt.Switch(PhaseSync)
	m.finReq = r.Irecv(mpi.AnySource, tagFin)
	m.finWait = m.finWait[:0]
	for i, ws := range m.ws {
		m.finWait = append(m.finWait, ws.live)
		if ws.live {
			m.sends = append(m.sends, r.Isend(m.g.workers[i], tagControl, ctlMsgBytes, ctlMsg{Shutdown: true}))
		}
	}
	if m.rt.runErr != nil {
		// Aborting: order survivors down best-effort but do not wait for
		// fins — a worker wedged behind a dead peer would never send one.
		clear(m.finWait)
	}
	m.pc = rmShutHead
}
