package core

import (
	"slices"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// masterFSM is a group master of Algorithm 1 — hand out (query, fragment)
// tasks on demand, gather and merge scores (and results under MW), and
// flush each finished batch: the master writes it (MW) or sends the
// workers their offset lists (WW strategies) — written as a resumable
// state machine for des.SpawnFSM, like workerFSM. The control flow is one
// program counter; the score drain and the batch flush are runs of states
// that return to m.next. Every blocking call runs through an op struct
// whose Init arms it and whose Step reports completion, so the machine
// parks and resumes at exactly the calendar entries a blocking body would.
//
// The plain protocol is the mp* states, serving runs' admission queue and
// idle gaps included. The resilient protocol (DESIGN.md §9) is the rm*
// states in resilient.go. Both share the setup, the task counter, the score
// merge, the batch-readiness check, the offset-list build, the flush scan,
// the MW write and the post-run readback.
type masterFSM struct {
	rt *runtime
	g  *group
	r  *mpi.Rank
	pt *PhaseTimer

	resilient bool
	pc        uint8
	next      uint8 // state after the drain or flush in progress

	// Shared bookkeeping. Per-query slices are indexed by q - g.loQ, and
	// per-task ones by taskIndex.
	totalTasks, processed int
	nextQ, nextF          int
	remaining             []int   // fragments not yet merged
	assigned              [][]int // per query: fragment -> rank whose results merged
	mergeAcc              []int64 // merged bytes
	complete              []bool  // every fragment merged
	taskDone              []bool
	flushed               int // batches flushed (resilient: initial waves sent)

	sends     []*mpi.Request    // replies, offset lists, tokens, nudges in flight
	perWorker [][]search.Result // the flushing batch's offset lists, by slot

	// Scratch ops: the master runs one blocking composite at a time.
	bcast   mpi.BcastOp
	wait    mpi.WaitOp
	waitAny mpi.WaitAnyOp
	waitAll mpi.WaitAllOp
	barrier mpi.BarrierOp
	issue   pvfs.IssueOp
	rsegs   romio.ReadSegsOp
	waitSet []*mpi.Request
	segs    []pvfs.Segment // readback extents

	merging    *mpi.Message // the score report being merged
	mergeBytes int64
	sleepStart des.Time
	bi         int // batch being flushed, or read back after the run
	hints      romio.Hints
	rbLeft     int // in-run readback rounds left for the MW batch

	// Plain protocol.
	notified  int            // workers told that all tasks are dispatched
	scoreReqs []*mpi.Request // posted score receives, one per dispatched task
	ready     []*mpi.Message // drain scratch: the reports that had arrived
	ri        int
	src       int // rank whose work request is being served
	t         task
	have      bool     // t is the reply (false: no more work)
	deadline  des.Time // serving: the next arrival

	resilientState
}

// Program counters (masterFSM.pc).
const (
	msStart    uint8 = iota // timer and output-file setup
	msOpenDB                // output-file create in flight (group 0)
	msOpened                // database-file create in flight (group 0)
	msWaitFile              // other groups: parked until the files are open
	msBcast                 // setup broadcast in flight
	msPostRun               // post-run readback: arm the next batch's read
	msPostRead              // post-run readback read in flight

	mpHead        // plain loop head
	mpRecv        // work-request receive in flight
	mpServe       // serving: admit arrivals, pick the next task
	mpIdle        // serving: nothing admitted before m.deadline
	mpIdleWait    // serving: score wait bounded by m.deadline
	mpSendReply   // work-reply send in flight
	mpStraggler   // every worker notified; waiting on scores
	mpCollect     // drain: collect the arrived score reports
	mpMerge       // drain: merge the next report
	mpMerged      // drain: merge sleep in flight
	mpFinalGather // WaitAll over the last sends
	mpFinalSync   // end-of-application barrier

	flScan   // flush: start the next ready batch
	mwFormat // MW write: result-formatting sleep in flight
	mwWrite  // MW write: contiguous write in flight
	mwSync   // MW write: sync in flight
	mwRead   // MW write: in-run readback read in flight

	rmHead      // resilient loop head: done check, timed wait
	rmWait      // timed wait on the persistent receives
	rmDrain     // consume completed receives, one at a time
	rmMerged    // score merge sleep in flight
	rmFlushed   // flush done: retire sends, check for a stuck run
	rmShutHead  // shutdown: wait for the next fin
	rmShutWait  // shutdown: timed wait on fins and revivals
	rmShutSends // shutdown: WaitAll over the last sends
)

// newMaster builds group g's master with nothing dispatched.
func (rt *runtime) newMaster(g *group, r *mpi.Rank, resilient bool) *masterFSM {
	nf := rt.cfg.Workload.NumFragments
	nq := g.hiQ - g.loQ
	m := &masterFSM{
		rt: rt, g: g, r: r, resilient: resilient,
		totalTasks: nq * nf,
		nextQ:      g.loQ,
		remaining:  make([]int, nq),
		assigned:   make([][]int, nq),
		mergeAcc:   make([]int64, nq),
		complete:   make([]bool, nq),
		taskDone:   make([]bool, nq*nf),
		perWorker:  make([][]search.Result, len(g.workers)),
	}
	for qi := range m.remaining {
		m.remaining[qi] = nf
		m.assigned[qi] = make([]int, nf)
	}
	if resilient {
		// Every worker live, nothing dispatched, no batch durable.
		m.retries = make([]int, len(m.taskDone))
		m.ws = make([]rworker, len(g.workers))
		m.nLive = len(m.ws)
		for i := range m.ws {
			m.ws[i] = rworker{live: true, syncMember: rt.cfg.QuerySync}
		}
		m.batches = make([]*rbatch, len(g.batches))
		for i := range m.batches {
			m.batches[i] = &rbatch{recovery: make(map[task]bool)}
		}
	}
	return m
}

// Step advances the master to its next park; returning without a park
// ends the process.
func (m *masterFSM) Step(p *des.Proc) {
	for m.step() {
	}
}

// step runs the current state; false means the master parked (or
// finished).
func (m *masterFSM) step() bool {
	rt, r, g := m.rt, m.r, m.g
	cfg := rt.cfg
	switch m.pc {
	case msStart:
		m.pt = NewPhaseTimer(rt.sim)
		m.pt.Trace(cfg.Sink, r.Proc().Name())
		rt.timers[r.Rank()] = m.pt
		// Step 1: set up the output file and distribute input variables.
		// Group 0 creates the files; the others wait until they are open.
		// pvfs hands back a file before its metadata round trip ends, so
		// rt.fileOpen, not rt.file, says that it is open.
		m.pt.Switch(PhaseSetup)
		if g.index != 0 {
			m.pc = msWaitFile
			return true
		}
		rt.file = romio.Open(r.Proc(), rt.world, rt.fs, outputFile, cfg.hints())
		m.pc = msOpenDB
		return !r.Proc().Yielded()
	case msOpenDB:
		m.pc = msOpened
		if cfg.DatabaseBytes > 0 {
			rt.dbFile = romio.Open(r.Proc(), rt.world, rt.fs, "s3asim.database", cfg.hints())
			return !r.Proc().Yielded()
		}
	case msOpened:
		rt.fileOpen = true
		rt.fileUp.Broadcast()
		m.startBcast()
	case msWaitFile:
		if !rt.fileOpen {
			rt.fileUp.Wait(r.Proc())
			return false
		}
		m.startBcast()
	case msBcast:
		if !m.bcast.Step() {
			return false
		}
		m.pc = mpHead
		if m.resilient {
			m.armResilient()
			m.pc = rmHead
		}
	case msPostRun:
		if !m.armPostRunRead() {
			m.pt.Finish()
			return false
		}
		m.pc = msPostRead
	case msPostRead:
		if !m.rsegs.Step() {
			return false
		}
		rt.rbVerify(r.Proc().Name(), m.segs, m.rsegs.Pieces())
		m.pc = msPostRun

	case mpHead:
		switch {
		case m.notified < len(g.workers):
			// Steps 3–9: serve the next work request (a blocking receive, as
			// the paper's master does to prioritize distribution).
			m.pt.Switch(PhaseDataDist)
			m.wait.Init(r, r.Irecv(mpi.AnySource, tagWorkRequest))
			m.pc = mpRecv
		case m.processed < m.totalTasks:
			// All workers notified; only stragglers' results remain.
			m.pt.Switch(PhaseGather)
			m.waitAny.Init(r, m.scoreReqs)
			m.pc = mpStraggler
		default:
			// Steps 20–22: everything scheduled, processed, and flushed.
			m.pt.Switch(PhaseGather)
			m.waitAll.Init(r, m.sends)
			m.pc = mpFinalGather
		}
	case mpRecv:
		if !m.wait.Step() {
			return false
		}
		m.src = m.wait.Message().Source
		// A serving master draws tasks from its admission queue instead of
		// the task counter.
		if rt.serve != nil {
			m.pc = mpServe
			return true
		}
		m.t, m.have = m.nextTask()
		m.sendReply()
	case mpServe:
		sv := rt.serve
		sv.admit(rt.sim.Now())
		if sv.curQ < 0 && len(sv.queue) > 0 {
			sv.pick(rt, rt.sim.Now())
		}
		if sv.curQ < 0 && sv.nextArr < len(sv.plan.Arrivals) {
			m.deadline = sv.plan.Arrivals[sv.nextArr]
			m.pc = mpIdle
			return true
		}
		if m.have = sv.curQ >= 0; m.have {
			m.t = task{Q: sv.curQ, F: sv.curF, Gate: m.flushed}
			if rt.ad != nil {
				m.t.Strat = rt.adaptTaskStrat(g, sv.curQ)
			}
			if sv.curF++; sv.curF == cfg.Workload.NumFragments {
				sv.curQ = -1
			}
		}
		m.pt.Switch(PhaseDataDist)
		m.sendReply()
	case mpIdle:
		// The open-loop gap before the next arrival: score reports are
		// drained (merging results and flushing finished batches) the moment
		// they land, so a quiet arrival stream does not delay durability.
		if rt.sim.Now() >= m.deadline {
			m.pc = mpServe
			return true
		}
		if len(m.scoreReqs) == 0 {
			// Nothing in flight: sleep straight to the arrival. The paper
			// bills master waiting to data distribution.
			m.pt.Switch(PhaseDataDist)
			r.Proc().Sleep(m.deadline - rt.sim.Now())
			return false
		}
		m.pt.Switch(PhaseGather)
		m.waitAny.InitUntil(r, m.scoreReqs, m.deadline)
		m.pc = mpIdleWait
	case mpIdleWait:
		if !m.waitAny.Step() {
			return false
		}
		m.startDrain(mpIdle)
	case mpSendReply:
		if !m.wait.Step() {
			return false
		}
		if m.have {
			m.pt.Switch(PhaseGather)
			m.scoreReqs = append(m.scoreReqs, r.Irecv(m.src, tagScores))
		} else {
			m.notified++
		}
		m.startDrain(mpHead)
	case mpStraggler:
		if !m.waitAny.Step() {
			return false
		}
		m.startDrain(mpHead)
	case mpCollect:
		// Steps 10–18: merge every score report that has arrived, then
		// flush every batch that became ready.
		m.pt.Switch(PhaseGather)
		kept := m.scoreReqs[:0]
		m.ready = m.ready[:0]
		for _, req := range m.scoreReqs {
			if req.Done() {
				m.ready = append(m.ready, req.Message())
			} else {
				kept = append(kept, req)
			}
		}
		m.scoreReqs = kept
		m.ri = 0
		m.pc = mpMerge
	case mpMerge:
		if m.ri == len(m.ready) {
			m.startFlush(m.next)
			return true
		}
		m.startMerge(m.ready[m.ri])
		m.pc = mpMerged
		return false
	case mpMerged:
		m.finishMerge()
		m.ri++
		m.pc = mpMerge
	case mpFinalGather:
		if !m.waitAll.Step() {
			return false
		}
		m.pt.Switch(PhaseSync)
		m.barrier.Init(rt.final, r)
		m.pc = mpFinalSync
	case mpFinalSync:
		if !m.barrier.Step() {
			return false
		}
		// The barrier released, so every worker write is durable — the
		// safe moment for the post-run verified read.
		m.startPostRun()

	case flScan:
		if m.bi = m.nextReadyBatch(); m.bi < 0 {
			if m.resilient {
				m.sendRecoveryWaves()
			}
			m.pc = m.next
			return true
		}
		if m.startBatch() {
			return false // the MW write's format sleep
		}
		m.endBatch()
	case mwFormat:
		b := g.batches[m.bi]
		rt.billMerge(r.Proc(), m.sleepStart)
		rt.file.StartWriteAt(&m.issue, r, b.Region, b.Bytes, b.Region)
		m.pc = mwWrite
	case mwWrite, mwSync:
		if !m.issue.Step() {
			return false
		}
		if m.pc == mwWrite && cfg.SyncEveryWrite {
			rt.file.StartSync(&m.issue, r)
			m.pc = mwSync
			return true
		}
		m.stampMW()
	case mwRead:
		if !m.rsegs.Step() {
			return false
		}
		rt.rbVerify(r.Proc().Name(), m.segs, m.rsegs.Pieces())
		if m.rbLeft--; m.rbLeft > 0 {
			m.rsegs.Init(rt.file, r, rt.rb.conf.Method, m.segs)
			return true
		}
		m.finishMWBatch()

	default:
		return m.stepResilient()
	}
	return true
}

// startBcast finishes setup once the files are open: the group's
// collective-write group, then the input-variable broadcast.
func (m *masterFSM) startBcast() {
	rt, g := m.rt, m.g
	if rt.cfg.Strategy == WWColl || (rt.ad != nil && rt.ad.hasColl) {
		g.collGroup = rt.file.NewGroup(g.workers)
	}
	m.bcast.Init(g.team, m.r, g.masterRank, configMsgBytes, "input-variables")
	m.pc = msBcast
}

// slot maps a worker rank to its index in the per-worker slices, and
// taskIndex a task to its index in the per-task ones.
func (m *masterFSM) slot(w int) int { return w - m.g.masterRank - 1 }

func (m *masterFSM) taskIndex(t task) int {
	return (t.Q-m.g.loQ)*m.rt.cfg.Workload.NumFragments + t.F
}

// nextTask is the task counter: re-dispatched tasks first (resilient
// runs), then the next fresh (query, fragment) in batch order.
func (m *masterFSM) nextTask() (task, bool) {
	for len(m.retryQ) > 0 {
		t := m.retryQ[0]
		m.retryQ = m.retryQ[1:]
		if !m.taskDone[m.taskIndex(t)] {
			return t, true
		}
	}
	if m.nextQ >= m.g.hiQ {
		return task{}, false
	}
	t := task{Q: m.nextQ, F: m.nextF}
	if m.rt.ad != nil {
		t.Strat = m.rt.adaptTaskStrat(m.g, m.nextQ)
	}
	if m.nextF++; m.nextF == m.rt.cfg.Workload.NumFragments {
		m.nextF = 0
		m.nextQ++
	}
	return t, true
}

// sendReply answers the work request from m.src with m.t, or with "no more
// work" when !m.have.
func (m *masterFSM) sendReply() {
	var payload any
	if m.have {
		payload = m.t
	}
	m.wait.Init(m.r, m.r.Isend(m.src, tagWorkReply, replyMsgBytes, payload))
	m.pc = mpSendReply
}

// startDrain starts the plain drain; the loop continues at next.
func (m *masterFSM) startDrain(next uint8) {
	m.next = next
	m.pc = mpCollect
}

// startMerge starts merging one score report into the master's ordered
// list for its query (step 10): full results under MW, scores only under
// worker-writing (§2). The merge sleep parks; finishMerge completes it.
func (m *masterFSM) startMerge(msg *mpi.Message) {
	rt := m.rt
	sm := msg.Payload.(scoreMsg)
	m.pt.Switch(PhaseGather)
	m.merging = msg
	m.mergeBytes = int64(sm.Count) * rt.cfg.ScoreEntryBytes
	if rt.taskStrat(sm.Task) == MW {
		m.mergeBytes += sm.ResultBytes
	}
	m.sleepStart = rt.sim.Now()
	m.r.Proc().Sleep(rt.cfg.mergeTime(m.mergeAcc[sm.Task.Q-m.g.loQ], m.mergeBytes))
}

// finishMerge bills the merge and accounts for the merged task.
func (m *masterFSM) finishMerge() {
	rt := m.rt
	rt.billMerge(m.r.Proc(), m.sleepStart)
	t := m.merging.Payload.(scoreMsg).Task
	qi := t.Q - m.g.loQ
	m.mergeAcc[qi] += m.mergeBytes
	m.assigned[qi][t.F] = m.merging.Source
	m.remaining[qi]--
	m.processed++
	m.taskDone[m.taskIndex(t)] = true
	if m.remaining[qi] == 0 {
		m.complete[qi] = true
		if sv := rt.serve; sv != nil {
			sv.stats[t.Q].Gathered = rt.sim.Now()
		}
		rt.adaptQueryDone(t.Q)
	}
}

// startFlush starts the flush scan; the loop continues at next. Batches
// flush in order, except that a serving run flushes any batch whose
// queries are complete (under SJF a later query may finish first).
func (m *masterFSM) startFlush(next uint8) {
	m.next = next
	m.bi = m.flushed
	if m.rt.serve != nil {
		m.bi = 0
	}
	m.pc = flScan
}

// nextReadyBatch returns the first batch from m.bi on that is ready to
// flush — every query merged — or -1.
func (m *masterFSM) nextReadyBatch() int {
	sv := m.rt.serve
	for bi := m.bi; bi < len(m.g.batches); bi++ {
		if sv != nil && sv.flushedB[bi] {
			continue
		}
		b := m.g.batches[bi]
		ready := true
		for q := b.LoQ; q < b.HiQ && ready; q++ {
			ready = m.complete[q-m.g.loQ]
		}
		if ready {
			return bi
		}
		if sv == nil {
			break
		}
	}
	return -1
}

// startBatch starts flushing batch m.bi: the master's MW write (true: its
// format sleep parked) or the WW offset-list distribution (steps 15–16).
func (m *masterFSM) startBatch() bool {
	if m.resilient {
		return m.rmStartBatch()
	}
	rt, g := m.rt, m.g
	cfg := rt.cfg
	b := g.batches[m.bi]
	gb := g.batchBase + m.bi
	if sv := rt.serve; sv != nil {
		for q := b.LoQ; q < b.HiQ; q++ {
			sv.stats[q].FlushStart = rt.sim.Now()
		}
	}
	// The batch's write strategy and hints: the controller's stamped
	// decision under adaptive I/O (normally made at dispatch; deciding here
	// covers a batch flushed without dispatches), the config otherwise.
	strat := cfg.Strategy
	m.hints = romio.Hints{}
	if rt.ad != nil {
		strat = rt.adaptTaskStrat(g, b.LoQ)
		m.hints = rt.ad.decisions[gb].hints
	}
	if strat == MW {
		// Step 18. Workers drain their in-flight tasks during this stall,
		// which is why the paper finds forced synchronization nearly free
		// under MW.
		if rt.ad != nil {
			rt.adaptFlushStart(gb, 1)
		}
		m.startWriteMW()
		return true
	}
	// Every worker gets a message (possibly empty) so it can track batch
	// progress and, under WW-Coll, join the collective round. A collective
	// round is stamped by every group worker; an individual WW batch only
	// by the workers holding placements.
	m.buildOffsets(nil)
	writers := 0
	for i, w := range g.workers {
		msg := offsetMsg{Batch: m.bi, Placements: m.perWorker[i], Sync: cfg.QuerySync}
		if rt.ad != nil {
			msg.Strat, msg.Hints = strat, m.hints
		}
		if strat == WWColl || len(msg.Placements) > 0 {
			writers++
		}
		m.sendOffsets(w, msg)
	}
	if rt.ad != nil {
		rt.adaptFlushStart(gb, writers)
	}
	// Worker-writing durability is stamped by the workers as their writes
	// (and syncs) complete; see workerFSM.stepWrite.
	return false
}

// endBatch records batch m.bi as flushed and moves the scan past it.
func (m *masterFSM) endBatch() {
	if !m.resilient {
		m.sends = retireDone(m.sends) // step 16
	}
	if sv := m.rt.serve; sv != nil {
		sv.flushedB[m.bi] = true
	}
	m.flushed++
	m.bi++
	m.pc = flScan
}

// buildOffsets fills m.perWorker with batch m.bi's placements, by the slot
// of the worker whose scores merged them; recovery, when non-nil, keeps
// only its tasks' placements.
func (m *masterFSM) buildOffsets(recovery map[task]bool) {
	clear(m.perWorker)
	b := m.g.batches[m.bi]
	for q := b.LoQ; q < b.HiQ; q++ {
		owners := m.assigned[q-m.g.loQ]
		for _, res := range m.rt.wl.Queries[q].Results {
			if recovery == nil || recovery[task{Q: q, F: res.Fragment}] {
				i := m.slot(owners[res.Fragment])
				m.perWorker[i] = append(m.perWorker[i], res)
			}
		}
	}
}

// sendOffsets ships one offset list: a header plus one offset per result.
func (m *masterFSM) sendOffsets(w int, msg offsetMsg) {
	bytes := int64(offsetHdrBytes) + int64(len(msg.Placements))*offsetPerResult
	m.sends = append(m.sends, m.r.Isend(w, tagOffsets, bytes, msg))
}

// retireDone drops the completed requests from reqs, in place.
func retireDone(reqs []*mpi.Request) []*mpi.Request {
	return slices.DeleteFunc(reqs, (*mpi.Request).Done)
}

// startWriteMW starts the master's write of batch m.bi under MW (step 18):
// formatting the merged results (the mpiBLAST master's serialization
// bottleneck, a sleep that parks), one contiguous write, the optional sync,
// the durability stamp, and the in-run readback.
func (m *masterFSM) startWriteMW() {
	m.pt.Switch(PhaseIO)
	m.sleepStart = m.rt.sim.Now()
	m.r.Proc().Sleep(des.BytesOver(m.g.batches[m.bi].Bytes, m.rt.cfg.FormatBandwidth))
	m.pc = mwFormat
}

// stampMW records the MW batch as durable, then starts the in-run
// verifier's re-reads of the region just written, if any.
func (m *masterFSM) stampMW() {
	rt, r := m.rt, m.r
	b := m.g.batches[m.bi]
	rt.stampFlush(r.Proc().Name(), m.g, m.bi)
	rb := rt.rb
	if rb == nil || rb.conf.InRunReads == 0 || b.Bytes == 0 {
		m.finishMWBatch()
		return
	}
	m.segs = append(m.segs[:0], pvfs.Segment{Offset: b.Region, Length: b.Bytes})
	m.pt.Switch(PhaseIO)
	m.rbLeft = rb.conf.InRunReads
	m.rsegs.Init(rt.file, r, rb.conf.Method, m.segs)
	m.pc = mwRead
}

// finishMWBatch follows the master's own write of batch m.bi with the
// workers' notifications and ends the batch.
func (m *masterFSM) finishMWBatch() {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	m.pt.Switch(PhaseGather)
	switch {
	case m.resilient:
		m.rmNotifyMW()
	case rt.ad != nil:
		// Adaptive MW batches still send (empty) offset lists: the
		// workers' batch tracker, and the QuerySync barrier trigger.
		for _, w := range m.g.workers {
			m.sends = append(m.sends, r.Isend(w, tagOffsets, offsetHdrBytes,
				offsetMsg{Batch: m.bi, Sync: cfg.QuerySync, Strat: MW, Hints: m.hints}))
		}
	case cfg.QuerySync:
		for _, w := range m.g.workers {
			m.sends = append(m.sends, r.Isend(w, tagSyncToken, tokenMsgBytes, tokMsg{Batch: m.bi, Sync: true}))
		}
	}
	m.endBatch()
}

// startPostRun starts the end-of-run verifier (Readback.PostRun), then
// finishes the master. It runs after the final barrier (or the resilient
// shutdown handshake), when every batch is durable: the master reads every
// committed result extent of its query range back through the read
// strategy, batch by batch at result granularity so list and sieve methods
// see the noncontiguous shape.
func (m *masterFSM) startPostRun() {
	m.pc = msPostRun
	m.bi = len(m.g.batches)
	if rb := m.rt.rb; rb != nil && rb.conf.PostRun {
		m.pt.Switch(PhaseIO)
		m.bi = 0
	}
}

// armPostRunRead arms the next batch's read; false means all are read.
func (m *masterFSM) armPostRunRead() bool {
	rt := m.rt
	for ; m.bi < len(m.g.batches); m.bi++ {
		b := m.g.batches[m.bi]
		m.segs = m.segs[:0]
		for q := b.LoQ; q < b.HiQ; q++ {
			for _, res := range rt.wl.Queries[q].Results {
				m.segs = append(m.segs, pvfs.Segment{Offset: res.Offset, Length: res.Size})
			}
		}
		if len(m.segs) > 0 {
			m.rsegs.Init(rt.file, m.r, rt.rb.conf.Method, m.segs)
			m.bi++
			return true
		}
	}
	return false
}
