package core

import (
	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// workerFSM is the worker of Algorithm 2 — request work from the group
// master, model the search, merge local results, ship scores (and results
// under MW), and perform its share of the result I/O as offset lists arrive
// — written as a resumable state machine for des.SpawnFSM. A blocked worker
// is this one struct instead of a parked goroutine stack, which is what
// makes 100k-worker configurations affordable. The control flow is one
// loop flattened into explicit program counters: the main loop (pc), and
// one counter per nested sub-machine: the drain loop (drainPC), a batch
// write (writePC), and a task (taskPC). Every blocking composite runs
// through an op struct (mpi.BcastOp, romio.WriteSegsOp, ...) whose Init arms
// it and whose Step reports completion. The resilient worker (rworker.go)
// is a separate goroutine process.
type workerFSM struct {
	rt *runtime
	g  *group
	r  *mpi.Rank
	pt *PhaseTimer

	pc      uint8
	drainPC uint8
	writePC uint8
	taskPC  uint8

	progress      bool
	drainHandled  bool
	tracksBatches bool

	noMore         bool           // the master denied a work request
	pending        []*mpi.Request // in-flight score sends
	offReq         *mpi.Request   // posted receive for offset lists (WW)
	tokReq         *mpi.Request   // posted receive for sync tokens (MW+sync)
	batchesHandled int
	mergeAcc       map[int]int64 // worker-local merged bytes per query

	// Scratch ops, one of each kind: the worker runs at most one blocking
	// composite at a time, so each op is reused across the whole run.
	bcast   mpi.BcastOp
	barrier mpi.BarrierOp
	wait    mpi.WaitOp
	waitAny mpi.WaitAnyOp
	waitAll mpi.WaitAllOp
	issue   pvfs.IssueOp
	wsegs   romio.WriteSegsOp
	coll    romio.CollWriteOp
	rsegs   romio.ReadSegsOp
	rcoll   romio.CollReadOp

	waitSet  []*mpi.Request // scratch for waitAny arming
	replyReq *mpi.Request

	rbLeft int  // in-run readback rounds remaining for this batch
	rbColl bool // current readback rounds are collective

	t          task
	taskBytes  int64
	taskCount  int
	om         offsetMsg
	segs       []pvfs.Segment
	sleepStart des.Time // causal start of an in-flight compute/merge sleep
}

// Main program counters (workerFSM.pc), in loop order.
const (
	wfStart       uint8 = iota // first step: timer setup, config broadcast
	wfBcast                    // setup broadcast in flight
	wfLoadDB                   // initial database read in flight
	wfLoopHead                 // top of the main loop: done()/iteration start
	wfSendReq                  // work-request send's wait in flight
	wfReplyCheck               // reply posted: dispatch on its completion
	wfReplyDrain               // drain running while awaiting the reply
	wfReplyWait                // parked on reply (and sync token, MW+sync)
	wfTask                     // task sub-machine running
	wfRetire                   // retire completed sends, then tail drain
	wfLoopDrain                // tail drain running
	wfIdleAny                  // idle: parked on the next master notification
	wfIdleAll                  // idle: draining the last score sends
	wfFinalGather              // final WaitAll over in-flight sends
	wfFinalSync                // end-of-application barrier
)

// Drain sub-machine counters (stepDrain).
const (
	drHead    uint8 = iota // check for an arrived offset list
	drWrite                // batch write sub-machine running
	drOffSync              // per-batch barrier after an offset write
	drTokHead              // check for an arrived sync token
	drTokSync              // per-batch barrier after a token
)

// Batch-write sub-machine counters (stepWrite).
const (
	wwFormat    uint8 = iota // result-formatting sleep in flight
	wwRoute                  // dispatch on strategy
	wwCollEntry              // two-phase gather barrier
	wwColl                   // collective write in flight
	wwSegs                   // individual noncontiguous write in flight
	wwSync                   // post-write file sync in flight
	wwRead                   // in-run readback: individual read in flight
	wwRColl                  // in-run readback: collective read round in flight
)

// Task sub-machine counters (stepTask).
const (
	tkGate      uint8 = iota // WW-Coll: check the batch-completion gate
	tkGateWait               // WW-Coll: parked awaiting an offset list
	tkGateDrain              // WW-Coll: drain after the gate wait
	tkReread                 // query-seg overflow re-read in flight
	tkCompute                // search compute sleep in flight
	tkMerge                  // local merge sleep in flight
)

// Step advances the worker to its next park. It is the Machine contract's
// entry point: called once per resumption from the kernel run loop.
func (m *workerFSM) Step(p *des.Proc) {
	for m.step() {
	}
}

// step runs the current main state; false means the worker parked (or
// finished at wfFinalSync).
func (m *workerFSM) step() bool {
	rt, r, g := m.rt, m.r, m.g
	cfg := rt.cfg
	boss := g.masterRank
	switch m.pc {
	case wfStart:
		m.pt = NewPhaseTimer(rt.sim)
		m.pt.Trace(cfg.Sink, r.Proc().Name())
		rt.timers[r.Rank()] = m.pt

		// Step 1: receive input variables (broadcast from the group master).
		m.pt.Switch(PhaseSetup)
		m.bcast.Init(g.team, r, boss, configMsgBytes, nil)
		m.pc = wfBcast
	case wfBcast:
		if !m.bcast.Step() {
			return false
		}
		// Input-I/O extension: load the sequence database.
		if m.armLoadDatabase() {
			m.pc = wfLoadDB
			return true
		}
		m.initState()
		m.pc = wfLoopHead
	case wfLoadDB:
		if !m.issue.Step() {
			return false
		}
		m.initState()
		m.pc = wfLoopHead
	case wfLoopHead:
		if m.done() {
			m.pt.Switch(PhaseGather)
			m.waitAll.Init(r, m.pending)
			m.pc = wfFinalGather
			return true
		}
		m.progress = false
		if m.noMore {
			m.pc = wfRetire
			return true
		}
		// Steps 3–4: request and receive work. The reply receive is
		// blocking (Algorithm 2 step 4), except that MW sync tokens are
		// honored while waiting so a request-blocked worker joins the
		// post-write barrier without first taking another task.
		m.pt.Switch(PhaseDataDist)
		m.wait.Init(r, r.Isend(boss, tagWorkRequest, requestMsgBytes, nil))
		m.pc = wfSendReq
	case wfSendReq:
		if !m.wait.Step() {
			return false
		}
		m.replyReq = r.Irecv(boss, tagWorkReply)
		m.pc = wfReplyCheck
	case wfReplyCheck:
		if m.replyReq.Done() {
			reply := m.replyReq.Message()
			if reply.Payload == nil {
				m.noMore = true
				m.progress = true
				m.pc = wfRetire
				return true
			}
			m.startTask(reply.Payload.(task))
			m.pc = wfTask
			return true
		}
		// Serving masters hold work requests across arrival gaps, so a
		// request-blocked worker must also service offset lists or it would
		// sit on pending writes until the next arrival; adaptive runs drain
		// here too so an MW batch's post-write notification is honored
		// before the next task, exactly as MW+sync tokens are.
		if m.tokReq != nil || m.rt.serve != nil || m.rt.ad != nil {
			m.startDrain()
			m.pc = wfReplyDrain
			return true
		}
		m.armReplyWait()
		m.pc = wfReplyWait
	case wfReplyDrain:
		if !m.stepDrain() {
			return false
		}
		if m.drainHandled {
			m.pt.Switch(PhaseDataDist)
			m.pc = wfReplyCheck
			return true
		}
		m.armReplyWait()
		m.pc = wfReplyWait
	case wfReplyWait:
		if !m.waitAny.Step() {
			return false
		}
		m.pc = wfReplyCheck
	case wfTask:
		if !m.stepTask() {
			return false
		}
		m.progress = true
		m.pc = wfRetire
	case wfRetire:
		// Step 15: retire completed score sends.
		m.pt.Switch(PhaseGather)
		kept := m.pending[:0]
		for _, req := range m.pending {
			if !req.Done() {
				kept = append(kept, req)
			}
		}
		m.pending = kept
		// Steps 16–19: handle any offset lists (or sync tokens) that have
		// arrived, without blocking.
		m.startDrain()
		m.pc = wfLoopDrain
	case wfLoopDrain:
		if !m.stepDrain() {
			return false
		}
		if m.drainHandled {
			m.progress = true
		}
		if !m.progress && !m.done() {
			m.armIdleWait()
			return true
		}
		m.pc = wfLoopHead
	case wfIdleAny:
		if !m.waitAny.Step() {
			return false
		}
		m.pc = wfLoopHead
	case wfIdleAll:
		if !m.waitAll.Step() {
			return false
		}
		m.pending = nil
		m.pc = wfLoopHead
	case wfFinalGather:
		if !m.waitAll.Step() {
			return false
		}
		// End-of-application synchronization.
		m.pt.Switch(PhaseSync)
		m.barrier.Init(rt.final, r)
		m.pc = wfFinalSync
	case wfFinalSync:
		if !m.barrier.Step() {
			return false
		}
		m.pt.Finish()
		return false // machine returns unparked: the worker is done
	}
	return true
}

// done is the termination predicate: no more work, every score send
// retired, and (when the worker tracks batches) every batch handled.
func (m *workerFSM) done() bool {
	if !m.noMore || len(m.pending) > 0 {
		return false
	}
	return !m.tracksBatches || m.batchesHandled == len(m.g.batches)
}

// initState posts the long-lived receives once the database is loaded.
func (m *workerFSM) initState() {
	cfg, r, boss := m.rt.cfg, m.r, m.g.masterRank
	m.mergeAcc = make(map[int]int64)
	// Adaptive workers always track offset lists: every batch sends one,
	// whichever strategy its controller picked (MW batches send empty lists).
	if m.rt.ad != nil || cfg.Strategy.WorkerWriting() {
		m.offReq = r.Irecv(boss, tagOffsets)
	} else if cfg.QuerySync {
		m.tokReq = r.Irecv(boss, tagSyncToken)
	}
	m.tracksBatches = m.offReq != nil || m.tokReq != nil
}

// armLoadDatabase starts the initial database read (dbLoadRange) and
// reports whether one is in flight.
func (m *workerFSM) armLoadDatabase() bool {
	off, n := m.rt.dbLoadRange(m.r.Rank())
	if n <= 0 {
		return false
	}
	m.pt.Switch(PhaseIO)
	m.rt.dbFile.StartReadAt(&m.issue, m.r, off, n)
	return true
}

// dbLoadRange is the initial database load from the parallel file system
// for worker rank (only when Config.DatabaseBytes is set; n == 0 means no
// read). Under database segmentation each worker reads its 1/W share once;
// under query segmentation each worker reads up to its memory capacity of
// the full replica (the remainder is re-read per query, see stepTask).
func (rt *runtime) dbLoadRange(rank int) (off, n int64) {
	cfg := rt.cfg
	if cfg.DatabaseBytes <= 0 {
		return 0, 0
	}
	if cfg.Segmentation == QuerySeg {
		return 0, min(cfg.DatabaseBytes, cfg.WorkerMemoryBytes)
	}
	share := cfg.DatabaseBytes / int64(rt.totalWorkers())
	if share <= 0 {
		return 0, 0
	}
	return (share * int64(rank)) % cfg.DatabaseBytes, share
}

// armReplyWait parks the worker on the reply, plus the sync-token receive
// under MW+sync — and, in serving and adaptive runs, the offset-list
// receive: a serving reply may be an arrival gap away, and an adaptive MW
// batch's notification must wake a request-blocked worker.
func (m *workerFSM) armReplyWait() {
	m.waitSet = append(m.waitSet[:0], m.replyReq)
	if m.tokReq != nil {
		m.waitSet = append(m.waitSet, m.tokReq)
	}
	if (m.rt.serve != nil || m.rt.ad != nil) && m.offReq != nil {
		m.waitSet = append(m.waitSet, m.offReq)
	}
	m.waitAny.Init(m.r, m.waitSet)
}

// armIdleWait blocks a worker with nothing left to compute until the next
// master notification (offset list or token) arrives. The paper bills
// waiting-on-the-master to the data distribution phase.
func (m *workerFSM) armIdleWait() {
	switch {
	case m.offReq != nil:
		m.pt.Switch(PhaseDataDist)
		m.waitSet = append(m.waitSet[:0], m.offReq)
		m.waitAny.Init(m.r, m.waitSet)
		m.pc = wfIdleAny
	case m.tokReq != nil:
		m.pt.Switch(PhaseDataDist)
		m.waitSet = append(m.waitSet[:0], m.tokReq)
		m.waitAny.Init(m.r, m.waitSet)
		m.pc = wfIdleAny
	default:
		m.pt.Switch(PhaseGather)
		m.waitAll.Init(m.r, m.pending)
		m.pc = wfIdleAll
	}
}

// startDrain arms the drain sub-machine.
func (m *workerFSM) startDrain() {
	m.drainPC = drHead
	m.drainHandled = false
}

// stepDrain handles every already-arrived offset list or sync token,
// reposting the receive each time; m.drainHandled reports whether anything
// was handled. Returns false when the worker parked inside a handler.
func (m *workerFSM) stepDrain() bool {
	r := m.r
	boss := m.g.masterRank
	for {
		switch m.drainPC {
		case drHead:
			if m.offReq != nil && m.offReq.Done() {
				m.om = m.offReq.Message().Payload.(offsetMsg)
				m.offReq = r.Irecv(boss, tagOffsets)
				m.startWrite()
				m.drainPC = drWrite
				continue
			}
			m.drainPC = drTokHead
		case drWrite:
			if !m.stepWrite() {
				return false
			}
			m.batchesHandled++
			if m.rt.cfg.QuerySync {
				m.pt.Switch(PhaseSync)
				m.barrier.Init(m.g.querySyn, r)
				m.drainPC = drOffSync
				continue
			}
			m.drainHandled = true
			m.drainPC = drHead
		case drOffSync:
			if !m.barrier.Step() {
				return false
			}
			m.drainHandled = true
			m.drainPC = drHead
		case drTokHead:
			if m.tokReq != nil && m.tokReq.Done() {
				m.tokReq = r.Irecv(boss, tagSyncToken)
				m.pt.Switch(PhaseSync)
				m.barrier.Init(m.g.querySyn, r)
				m.drainPC = drTokSync
				continue
			}
			return true
		case drTokSync:
			if !m.barrier.Step() {
				return false
			}
			m.batchesHandled++
			m.drainHandled = true
			m.drainPC = drTokHead
		}
	}
}

// startWrite arms the batch-write sub-machine for the offset list in m.om:
// this worker's share of a flushed batch, written with the batch's strategy.
func (m *workerFSM) startWrite() {
	cfg := m.rt.cfg
	if m.rt.ad != nil && m.om.Strat == MW {
		// The master already wrote this batch; the (empty) offset list only
		// tracks batch progress (stepWrite's route returns immediately).
		m.segs = nil
		m.writePC = wwRoute
		return
	}
	m.segs = m.rt.placementsToSegments(m.om.Placements)
	var segBytes int64
	for _, s := range m.segs {
		segBytes += s.Length
	}
	if segBytes > 0 {
		// Format this worker's share of the results before writing (under
		// WW strategies each worker serializes its own output).
		m.pt.Switch(PhaseIO)
		m.sleepStart = m.rt.sim.Now()
		m.r.Proc().Sleep(des.BytesOver(segBytes, cfg.FormatBandwidth))
		m.writePC = wwFormat
		return
	}
	m.writePC = wwRoute
}

// stepWrite drives the batch write; false means the worker parked.
func (m *workerFSM) stepWrite() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	for {
		switch m.writePC {
		case wwFormat:
			if r.Proc().Yielded() {
				return false
			}
			m.billMerge()
			m.writePC = wwRoute
		case wwRoute:
			strat := rt.batchStrat(m.om)
			if rt.ad != nil && strat == MW {
				return true
			}
			if strat == WWColl {
				// Collective write: every group worker participates, with or
				// without data. For two-phase, waiting for the last worker to
				// become ready is billed to data distribution (paper §4); the
				// collective operation itself is I/O.
				if cfg.CollMethod == romio.TwoPhase {
					m.pt.Switch(PhaseDataDist)
					m.barrier.Init(m.g.collEntry, r)
					m.writePC = wwCollEntry
					continue
				}
				m.startColl()
				continue
			}
			if len(m.segs) == 0 {
				return true
			}
			// Individual noncontiguous write (POSIX or list I/O per hints;
			// adaptive batches carry their hint vector in the offset message).
			m.pt.Switch(PhaseIO)
			if rt.ad != nil {
				m.wsegs.InitHinted(rt.file, r, m.segs, m.om.Hints)
			} else {
				m.wsegs.Init(rt.file, r, m.segs)
			}
			m.writePC = wwSegs
		case wwCollEntry:
			if !m.barrier.Step() {
				return false
			}
			m.startColl()
		case wwColl:
			if !m.coll.Step() {
				return false
			}
			if cfg.SyncEveryWrite {
				rt.file.StartSync(&m.issue, r)
				m.writePC = wwSync
				continue
			}
			rt.stampFlush(r.Proc().Name(), m.g, m.om.Batch)
			if m.armReadback(true) {
				continue
			}
			return true
		case wwSegs:
			if !m.wsegs.Step() {
				return false
			}
			if cfg.SyncEveryWrite {
				rt.file.StartSync(&m.issue, r)
				m.writePC = wwSync
				continue
			}
			rt.stampFlush(r.Proc().Name(), m.g, m.om.Batch)
			if m.armReadback(false) {
				continue
			}
			return true
		case wwSync:
			if !m.issue.Step() {
				return false
			}
			rt.stampFlush(r.Proc().Name(), m.g, m.om.Batch)
			if m.armReadback(rt.batchStrat(m.om) == WWColl) {
				continue
			}
			return true
		case wwRead:
			if !m.rsegs.Step() {
				return false
			}
			rt.rbVerify(r.Proc().Name(), m.segs, m.rsegs.Pieces())
			m.rbLeft--
			if m.rbLeft > 0 {
				m.startReadback()
				continue
			}
			return true
		case wwRColl:
			if !m.rcoll.Step() {
				return false
			}
			rt.rbVerify(r.Proc().Name(), m.segs, m.rcoll.Pieces())
			m.rbLeft--
			if m.rbLeft > 0 {
				m.startReadback()
				continue
			}
			return true
		}
	}
}

// startColl arms the collective write round.
func (m *workerFSM) startColl() {
	m.pt.Switch(PhaseIO)
	if m.rt.ad != nil {
		m.coll.InitHinted(m.g.collGroup, m.r, m.segs, m.om.Hints)
	} else {
		m.coll.Init(m.g.collGroup, m.r, m.segs)
	}
	m.writePC = wwColl
}

// armReadback arms the first in-run verification read after a batch write
// is stamped durable (DESIGN.md §14): the just-written segments are re-read
// InRunReads times and each pass verified. collective marks a write that
// went through the collective round, making a collective readback round
// legal. False means readback is off or there is nothing to read
// individually.
func (m *workerFSM) armReadback(collective bool) bool {
	rb := m.rt.rb
	if rb == nil || rb.conf.InRunReads == 0 {
		return false
	}
	m.rbColl = collective && rb.conf.Collective
	if !m.rbColl && len(m.segs) == 0 {
		return false
	}
	m.rbLeft = rb.conf.InRunReads
	m.startReadback()
	return true
}

// startReadback arms one in-run readback round.
func (m *workerFSM) startReadback() {
	m.pt.Switch(PhaseIO)
	if m.rbColl {
		m.rcoll.Init(m.g.collGroup, m.r, m.segs)
		m.writePC = wwRColl
		return
	}
	m.rsegs.Init(m.rt.file, m.r, m.rt.rb.conf.Method, m.segs)
	m.writePC = wwRead
}

// startTask arms the task sub-machine for t: one (query, fragment) search.
func (m *workerFSM) startTask(t task) {
	m.t = t
	m.taskBytes = m.rt.wl.TaskBytes(t.Q, t.F)
	m.taskCount = m.rt.wl.TaskCount(t.Q, t.F)
	m.taskPC = tkGate
}

// stepTask models one (query, fragment) search; false means the worker
// parked.
func (m *workerFSM) stepTask() bool {
	rt, r := m.rt, m.r
	cfg := rt.cfg
	for {
		switch m.taskPC {
		case tkGate:
			// Under WW-Coll a worker cannot begin an upcoming query until the
			// collective I/O for all earlier batches has completed (§2.3).
			if rt.taskStrat(m.t) == WWColl {
				// Serving runs flush out of order, so the query index no
				// longer implies how many rounds precede this task; the
				// master sends the gate directly (task.Gate).
				need := (m.t.Q - m.g.loQ) / cfg.QueriesPerWrite
				if rt.serve != nil {
					need = m.t.Gate
				}
				if m.batchesHandled < need {
					m.pt.Switch(PhaseDataDist)
					m.waitSet = append(m.waitSet[:0], m.offReq)
					m.waitAny.Init(r, m.waitSet)
					m.taskPC = tkGateWait
					continue
				}
			}
			// Query segmentation with a database larger than worker memory
			// must re-read the overflow for every query (§1's repeated I/O).
			if cfg.Segmentation == QuerySeg && cfg.DatabaseBytes > cfg.WorkerMemoryBytes {
				m.pt.Switch(PhaseIO)
				rt.dbFile.StartReadAt(&m.issue, r,
					cfg.WorkerMemoryBytes, cfg.DatabaseBytes-cfg.WorkerMemoryBytes)
				m.taskPC = tkReread
				continue
			}
			m.armCompute()
		case tkGateWait:
			if !m.waitAny.Step() {
				return false
			}
			m.startDrain()
			m.taskPC = tkGateDrain
		case tkGateDrain:
			if !m.stepDrain() {
				return false
			}
			m.taskPC = tkGate
		case tkReread:
			if !m.issue.Step() {
				return false
			}
			m.armCompute()
		case tkCompute:
			if r.Proc().Yielded() {
				return false
			}
			if c := r.World().Causal(); c != nil {
				c.Busy(r.Proc().Name(), causal.CatCompute, m.sleepStart, r.Now())
			}
			// Step 8: merge with previous results for this query.
			if rt.taskStrat(m.t).WorkerWriting() {
				m.pt.Switch(PhaseMerge)
				m.sleepStart = rt.sim.Now()
				r.Proc().Sleep(cfg.mergeTime(m.mergeAcc[m.t.Q], m.taskBytes))
				m.taskPC = tkMerge
				continue
			}
			m.taskSend()
			return true
		case tkMerge:
			if r.Proc().Yielded() {
				return false
			}
			m.billMerge()
			m.mergeAcc[m.t.Q] += m.taskBytes
			m.taskSend()
			return true
		}
	}
}

// armCompute starts the search-compute sleep (step 6).
func (m *workerFSM) armCompute() {
	cfg := m.rt.cfg
	m.pt.Switch(PhaseCompute)
	m.sleepStart = m.rt.sim.Now()
	m.r.Proc().Sleep(cfg.Compute.TaskTime(m.taskBytes, cfg.ComputeSpeed))
	m.taskPC = tkCompute
}

// taskSend ships ordered scores (and the result data itself under MW) —
// step 10, a nonblocking send retired later.
func (m *workerFSM) taskSend() {
	cfg := m.rt.cfg
	m.pt.Switch(PhaseGather)
	wire := int64(m.taskCount) * cfg.ScoreEntryBytes
	if m.rt.taskStrat(m.t) == MW {
		wire += m.taskBytes
	}
	m.pending = append(m.pending,
		m.r.Isend(m.g.masterRank, tagScores, wire,
			scoreMsg{Task: m.t, Count: m.taskCount, ResultBytes: m.taskBytes}))
}

// billMerge records a completed merge/format sleep for causal attribution,
// mirroring runtime.mergeSleep.
func (m *workerFSM) billMerge() {
	if c := m.rt.cfg.Causal; c != nil {
		c.Busy(m.r.Proc().Name(), causal.CatMerge, m.sleepStart, m.rt.sim.Now())
	}
}

// stampFlush records when a batch's data last became durable: the latest
// write completion among the workers holding its results (the master
// stamps MW batches itself). Report.BatchFlushTimes feeds the §2
// failure-recovery analysis; serving runs also record which process
// completed the write (the tail-attribution anchor).
func (rt *runtime) stampFlush(proc string, g *group, localBatch int) {
	idx := g.batchBase + localBatch
	if now := rt.sim.Now(); now > rt.flushTimes[idx] {
		rt.flushTimes[idx] = now
		rt.serveStampDone(idx, proc)
	}
	if rt.ad != nil {
		rt.adaptStamped(idx, proc)
	}
}

// placementsToSegments converts result placements (already in file order)
// to write segments, coalescing adjacent results — a real implementation
// merges contiguous extents when building its I/O list. Each segment
// carries the content of its own offset (Src == Offset).
func (rt *runtime) placementsToSegments(placements []search.Result) []pvfs.Segment {
	var segs []pvfs.Segment
	for _, res := range placements {
		if n := len(segs); n > 0 && segs[n-1].End() == res.Offset {
			segs[n-1].Length += res.Size
			continue
		}
		segs = append(segs, pvfs.Segment{Offset: res.Offset, Length: res.Size, Src: res.Offset})
	}
	return segs
}
