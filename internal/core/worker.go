package core

import (
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// workerState is one worker's bookkeeping for Algorithm 2.
type workerState struct {
	g              *group
	noMore         bool
	pending        []*mpi.Request // in-flight score sends
	offReq         *mpi.Request   // posted receive for offset lists (WW)
	tokReq         *mpi.Request   // posted receive for sync tokens (MW+sync)
	batchesHandled int
	mergeAcc       map[int]int64 // worker-local merged bytes per query
}

// worker runs Algorithm 2: request work from its group master, model the
// search, merge local results, ship scores (and results under MW), and
// perform its share of the result I/O as offset lists arrive.
func (rt *runtime) worker(r *mpi.Rank, g *group) {
	cfg := rt.cfg
	pt := NewPhaseTimer(rt.sim)
	pt.Trace(cfg.sink(), r.Proc().Name())
	rt.timers[r.Rank()] = pt
	boss := g.masterRank

	// Step 1: receive input variables (broadcast from the group master).
	pt.Switch(PhaseSetup)
	g.team.Bcast(r, boss, configMsgBytes, nil)

	// Input-I/O extension: load the sequence database (its share under
	// database segmentation, the whole replica under query segmentation).
	rt.workerLoadDatabase(r, pt)

	st := &workerState{g: g, mergeAcc: make(map[int]int64)}
	// Adaptive workers always track offset lists: every batch sends one,
	// whichever strategy its controller picked (MW batches send empty lists).
	if rt.ad != nil || cfg.Strategy.WorkerWriting() {
		st.offReq = r.Irecv(boss, tagOffsets)
	} else if cfg.QuerySync {
		st.tokReq = r.Irecv(boss, tagSyncToken)
	}
	tracksBatches := st.offReq != nil || st.tokReq != nil

	done := func() bool {
		if !st.noMore || len(st.pending) > 0 {
			return false
		}
		return !tracksBatches || st.batchesHandled == len(g.batches)
	}

	for !done() {
		progress := false
		if !st.noMore {
			// Steps 3–4: request and receive work. The reply receive is
			// blocking (Algorithm 2 step 4), except that MW sync tokens are
			// honored while waiting so a request-blocked worker joins the
			// post-write barrier without first taking another task.
			pt.Switch(PhaseDataDist)
			r.Send(boss, tagWorkRequest, requestMsgBytes, nil)
			replyReq := r.Irecv(boss, tagWorkReply)
			for !replyReq.Done() {
				// Serving masters hold work requests across arrival gaps, so
				// a request-blocked worker must also service offset lists or
				// it would sit on pending writes until the next arrival.
				// Adaptive runs drain here too: an MW batch's post-write
				// notification must be honored before the next task, exactly
				// as MW+sync tokens are.
				if (st.tokReq != nil || rt.serve != nil || rt.ad != nil) && rt.workerDrainIO(r, pt, st) {
					pt.Switch(PhaseDataDist)
					continue
				}
				r.WaitAny(workerWaitSet(replyReq, st, rt.serve != nil || rt.ad != nil))
			}
			reply := replyReq.Message()
			if reply.Payload == nil {
				st.noMore = true
			} else {
				rt.workerTask(r, pt, st, reply.Payload.(task))
			}
			progress = true
		}
		// Step 15: retire completed score sends.
		pt.Switch(PhaseGather)
		kept := st.pending[:0]
		for _, req := range st.pending {
			if !req.Done() {
				kept = append(kept, req)
			}
		}
		st.pending = kept
		// Steps 16–19: handle any offset lists (or sync tokens) that have
		// arrived, without blocking — this is what lets individual WW
		// strategies keep computing while I/O instructions are pending.
		if rt.workerDrainIO(r, pt, st) {
			progress = true
		}
		if !progress && !done() {
			rt.workerIdleWait(r, pt, st)
		}
	}
	pt.Switch(PhaseGather)
	r.WaitAll(st.pending...)
	// End-of-application synchronization.
	pt.Switch(PhaseSync)
	rt.final.Arrive(r)
	pt.Finish()
}

// workerTask models one (query, fragment) search: compute, local merge
// (worker-writing only), and the score/result send to the master.
func (rt *runtime) workerTask(r *mpi.Rank, pt *PhaseTimer, st *workerState, t task) {
	cfg := rt.cfg
	bytes := rt.wl.TaskBytes(t.Q, t.F)
	count := rt.wl.TaskCount(t.Q, t.F)
	strat := rt.taskStrat(t)

	// Under WW-Coll a worker cannot begin an upcoming query until the
	// collective I/O for all earlier batches has completed (§2.3: "the
	// WW-Coll strategy cannot allow worker processes to begin upcoming
	// queries until after the I/O operation"). The wait for the master's
	// offset list bills to data distribution.
	if strat == WWColl {
		// Serving runs flush out of order, so the query index no longer
		// implies how many rounds precede this task; the master tells us
		// directly (task.Gate).
		need := (t.Q - st.g.loQ) / cfg.QueriesPerWrite
		if rt.serve != nil {
			need = t.Gate
		}
		for st.batchesHandled < need {
			pt.Switch(PhaseDataDist)
			waitDone(r, st.offReq)
			rt.workerDrainIO(r, pt, st)
		}
	}

	// Query segmentation with a database larger than worker memory must
	// re-read the overflow for every query — §1's "repeated I/O introduced
	// by loading sequence data back and forth between the file system and
	// the main memory".
	if cfg.Segmentation == QuerySeg && cfg.DatabaseBytes > cfg.WorkerMemoryBytes {
		pt.Switch(PhaseIO)
		rt.dbFile.ReadAt(r, cfg.WorkerMemoryBytes, cfg.DatabaseBytes-cfg.WorkerMemoryBytes)
	}

	// Step 6: the search itself.
	pt.Switch(PhaseCompute)
	r.Compute(cfg.Compute.TaskTime(bytes, cfg.ComputeSpeed))

	// Step 8: merge with previous results for this query (parallel I/O).
	if strat.WorkerWriting() {
		pt.Switch(PhaseMerge)
		rt.mergeSleep(r, cfg.mergeTime(st.mergeAcc[t.Q], bytes))
		st.mergeAcc[t.Q] += bytes
	}

	// Step 10: send ordered scores (and the result data itself under MW).
	pt.Switch(PhaseGather)
	wire := int64(count) * cfg.ScoreEntryBytes
	if strat == MW {
		wire += bytes
	}
	st.pending = append(st.pending,
		r.Isend(st.g.masterRank, tagScores, wire,
			scoreMsg{Task: t, Count: count, ResultBytes: bytes}))
}

// workerLoadDatabase models the initial database load from the parallel
// file system (only when Config.DatabaseBytes is set). Under database
// segmentation each worker reads its 1/W share once; under query
// segmentation each worker reads up to its memory capacity of the full
// replica (the remainder is re-read per query in workerTask).
func (rt *runtime) workerLoadDatabase(r *mpi.Rank, pt *PhaseTimer) {
	cfg := rt.cfg
	if cfg.DatabaseBytes <= 0 {
		return
	}
	pt.Switch(PhaseIO)
	if cfg.Segmentation == QuerySeg {
		n := cfg.DatabaseBytes
		if n > cfg.WorkerMemoryBytes {
			n = cfg.WorkerMemoryBytes
		}
		rt.dbFile.ReadAt(r, 0, n)
		return
	}
	share := cfg.DatabaseBytes / int64(rt.totalWorkers())
	if share <= 0 {
		return
	}
	off := (share * int64(r.Rank())) % cfg.DatabaseBytes
	rt.dbFile.ReadAt(r, off, share)
}

// workerDrainIO handles every already-arrived offset list or sync token,
// reposting the receive each time. Reports whether anything was handled.
func (rt *runtime) workerDrainIO(r *mpi.Rank, pt *PhaseTimer, st *workerState) bool {
	boss := st.g.masterRank
	handled := false
	for st.offReq != nil && st.offReq.Done() {
		om := st.offReq.Message().Payload.(offsetMsg)
		st.offReq = r.Irecv(boss, tagOffsets)
		rt.workerWrite(r, pt, st.g, om)
		st.batchesHandled++
		if rt.cfg.QuerySync {
			pt.Switch(PhaseSync)
			st.g.querySyn.Arrive(r)
		}
		handled = true
	}
	for st.tokReq != nil && st.tokReq.Done() {
		st.tokReq = r.Irecv(boss, tagSyncToken)
		pt.Switch(PhaseSync)
		st.g.querySyn.Arrive(r)
		st.batchesHandled++
		handled = true
	}
	return handled
}

// workerIdleWait blocks a worker that has nothing left to compute until the
// next master notification (offset list or token) arrives. The paper bills
// waiting-on-the-master to the data distribution phase.
func (rt *runtime) workerIdleWait(r *mpi.Rank, pt *PhaseTimer, st *workerState) {
	switch {
	case st.offReq != nil:
		pt.Switch(PhaseDataDist)
		waitDone(r, st.offReq)
	case st.tokReq != nil:
		pt.Switch(PhaseDataDist)
		waitDone(r, st.tokReq)
	default:
		pt.Switch(PhaseGather)
		r.WaitAll(st.pending...)
		st.pending = nil
	}
}

// waitDone blocks until the request completes without consuming it, so the
// normal drain path processes the message.
func waitDone(r *mpi.Rank, req *mpi.Request) {
	r.WaitAny([]*mpi.Request{req})
}

// workerWaitSet lists the requests a worker may block on while awaiting a
// work reply: the reply itself, plus the sync-token receive under MW+sync —
// and, in serving and adaptive runs (offsets=true), the offset-list receive:
// a serving reply may be an arrival gap away, and an adaptive MW batch's
// notification must wake a request-blocked worker.
func workerWaitSet(reply *mpi.Request, st *workerState, offsets bool) []*mpi.Request {
	set := []*mpi.Request{reply}
	if st.tokReq != nil {
		set = append(set, st.tokReq)
	}
	if offsets && st.offReq != nil {
		set = append(set, st.offReq)
	}
	return set
}

// workerWrite performs this worker's share of a flushed batch using the
// configured strategy.
func (rt *runtime) workerWrite(r *mpi.Rank, pt *PhaseTimer, g *group, om offsetMsg) {
	cfg := rt.cfg
	strat := rt.batchStrat(om)
	if rt.ad != nil && strat == MW {
		// The master already wrote this batch; the (empty) offset list only
		// tracks batch progress (the drain loop handles the sync barrier).
		return
	}
	segs := rt.placementsToSegments(om.Placements)
	// Format this worker's share of the results before writing (under WW
	// strategies each worker serializes its own output).
	var segBytes int64
	for _, s := range segs {
		segBytes += s.Length
	}
	if segBytes > 0 {
		pt.Switch(PhaseIO)
		rt.mergeSleep(r, des.BytesOver(segBytes, cfg.FormatBandwidth))
	}
	if strat == WWColl {
		// Collective write: every group worker participates, with or
		// without data — the inherent synchronization the paper measures.
		// For two-phase, waiting for the last worker to become ready is
		// billed to data distribution (paper §4: "while workers are
		// waiting to do collective I/O ... which shows up in the data
		// distribution time"); the collective operation itself is I/O.
		// The list-sync collective has no entry synchronization: ranks
		// write on arrival and synchronize only at the end.
		if cfg.CollMethod == romio.TwoPhase {
			pt.Switch(PhaseDataDist)
			g.collEntry.Arrive(r)
		}
		pt.Switch(PhaseIO)
		if rt.ad != nil {
			g.collGroup.WriteAllHinted(r, segs, om.Hints)
		} else {
			g.collGroup.WriteAll(r, segs)
		}
		if cfg.SyncEveryWrite {
			rt.file.Sync(r)
		}
		rt.stampFlush(r.Proc().Name(), g, om.Batch)
		rt.rbInRunWorker(r, pt, g, segs, true)
		return
	}
	if len(segs) == 0 {
		return
	}
	// Individual noncontiguous write (POSIX or list I/O per hints; adaptive
	// batches carry their decided hint vector in the offset message).
	pt.Switch(PhaseIO)
	if rt.ad != nil {
		rt.file.WriteSegsHinted(r, segs, om.Hints)
	} else {
		rt.file.WriteSegs(r, segs)
	}
	if cfg.SyncEveryWrite {
		rt.file.Sync(r)
	}
	rt.stampFlush(r.Proc().Name(), g, om.Batch)
	rt.rbInRunWorker(r, pt, g, segs, false)
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
