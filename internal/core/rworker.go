package core

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/romio"
)

// This file implements the resilient worker side of the self-healing
// protocol (DESIGN.md §9) plus the runtime glue both resilient roles share.
// See resilient.go for the master and the protocol overview.

// Runtime glue shared by rmaster and rworker.

// noteEnd records one protocol actor's clean exit (the resilient protocol's
// replacement for the global final barrier: the run ends when the event
// calendar drains, and this counter is the audit trail).
func (rt *runtime) noteEnd() { rt.ended++ }

// fail records the first unrecoverable failure; RunWithWorkload surfaces it
// after the simulation drains.
func (rt *runtime) fail(err error) {
	if rt.runErr == nil {
		rt.runErr = err
	}
}

// count bumps a run counter.
func (rt *runtime) count(name string, delta int64) { rt.metrics.Add(name, delta) }

// observeTime records one virtual-time sample.
func (rt *runtime) observeTime(name string, t des.Time) { rt.metrics.ObserveTime(name, t) }

// pointf emits an instantaneous marker on the fault timeline.
func (rt *runtime) pointf(format string, args ...any) {
	if s := rt.cfg.Sink; s != nil {
		s.Point("faults", fmt.Sprintf(format, args...), rt.sim.Now())
	}
}

// workerDied is the panic sentinel a crashing worker unwinds with; the
// rworker wrapper recovers it (and only it).
type workerDied struct{}

// rworkerState is one resilient worker's bookkeeping.
type rworkerState struct {
	g    *group
	boss int

	shutdown bool
	idle     bool // master said "no work right now"; wait for a nudge
	nudges   int  // control nudges received and not yet consumed

	seq        int  // work-request sequence number (resends repeat it)
	awaitReply bool // inside rwRequest: the next work reply is live, not stale
	haveBase   bool // flushBase captured from the first reply
	flushBase  int  // initial waves flushed before this incarnation joined
	initSeen   int  // wave-0 offset lists handled by this incarnation

	pending  []*mpi.Request  // in-flight score/ack/request sends
	offReq   *mpi.Request    // persistent receive: offset lists (WW)
	tokReq   *mpi.Request    // persistent receive: sync tokens (MW + sync)
	ctlReq   *mpi.Request    // persistent receive: control plane
	repReq   *mpi.Request    // persistent receive: work replies
	seenWave map[[2]int]bool // (batch, wave) already written — dedupe + re-ack
	mergeAcc map[int]int64
}

// rworker runs the resilient Algorithm 2: the original request/compute/score
// flow hardened with sequence-numbered resends, wave-deduplicated writes with
// durability acks, an explicit shutdown handshake, and crash checkpoints.
// rejoined marks a respawned incarnation (skip the setup broadcast the dead
// predecessor already consumed).
func (rt *runtime) rworker(r *mpi.Rank, g *group, rejoined bool) {
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(workerDied); !ok {
				panic(e)
			}
		}
	}()
	cfg := rt.cfg
	pt := NewPhaseTimer(rt.sim)
	pt.Trace(cfg.Sink, r.Proc().Name())
	rt.timers[r.Rank()] = pt
	boss := g.masterRank

	pt.Switch(PhaseSetup)
	if !rejoined {
		g.team.Bcast(r, boss, configMsgBytes, nil)
	}
	if off, n := rt.dbLoadRange(r.Rank()); n > 0 {
		pt.Switch(PhaseIO)
		rt.dbFile.ReadAt(r, off, n)
	}

	st := &rworkerState{
		g:        g,
		boss:     boss,
		seenWave: make(map[[2]int]bool),
		mergeAcc: make(map[int]int64),
	}
	if cfg.Strategy.WorkerWriting() {
		st.offReq = r.Irecv(boss, tagOffsets)
	} else if cfg.QuerySync {
		st.tokReq = r.Irecv(boss, tagSyncToken)
	}
	st.ctlReq = r.Irecv(boss, tagControl)
	st.repReq = r.Irecv(boss, tagWorkReply)

	for !st.shutdown {
		rt.rwCheckpoint(r, st, pt)
		rt.rwDrain(r, pt, st)
		if st.shutdown {
			break
		}
		if st.idle {
			if st.nudges > 0 {
				st.nudges = 0
				st.idle = false
				continue
			}
			pt.Switch(PhaseDataDist)
			rt.rwPark(r, st, pt)
			continue
		}
		t, ok := rt.rwRequest(r, pt, st)
		if st.shutdown {
			break
		}
		if !ok {
			st.idle = true
			continue
		}
		rt.rwTask(r, pt, st, t)
		rt.rwRetire(st)
	}

	// Orderly exit: settle outstanding sends, acknowledge the shutdown with
	// a fin, and withdraw the persistent receives.
	pt.Switch(PhaseGather)
	r.WaitAll(st.pending...)
	st.pending = nil
	pt.Switch(PhaseSync)
	r.Send(boss, tagFin, finMsgBytes, nil)
	for _, q := range []*mpi.Request{st.offReq, st.tokReq, st.ctlReq, st.repReq} {
		if q != nil {
			r.Cancel(q)
		}
	}
	pt.Finish()
	rt.noteEnd()
}

// rwCheckpoint is a protocol checkpoint: if a crash is armed for this rank,
// it takes effect here. Never called between a write and its ack, or while
// parked in a barrier or collective round — the fail-stop-at-checkpoints
// contract the recovery protocol and the mpi/romio deregistration paths
// depend on.
func (rt *runtime) rwCheckpoint(r *mpi.Rank, st *rworkerState, pt *PhaseTimer) {
	if rt.faults == nil || !rt.faults.ShouldDie(r.Rank()) {
		return
	}
	rank := r.Rank()
	restart := rt.faults.Effect(rank)
	rt.world.Kill(rank)
	pt.Finish()
	if restart > 0 {
		g := st.g
		name := fmt.Sprintf("worker%d.%d", rank, r.Incarnation()+1)
		rt.sim.After(restart, func() {
			rt.faults.Revive(rank)
			rt.world.Respawn(rank, name, func(r2 *mpi.Rank) { rt.rworker(r2, g, true) })
		})
	}
	panic(workerDied{})
}

// rwPark blocks an idle worker until any request completes or it is woken
// out-of-band (crash arming, nudge). The master owes every idle worker a
// control message (nudge or shutdown), so parking without a deadline is safe.
func (rt *runtime) rwPark(r *mpi.Rank, st *rworkerState, pt *PhaseTimer) {
	for {
		rt.rwCheckpoint(r, st, pt)
		if rt.rwAnyReady(st) {
			return
		}
		r.WaitEvent()
	}
}

// rwWaitUntil blocks until a protocol receive completes or the deadline
// passes (false), re-checking the crash checkpoint on every wake.
func (rt *runtime) rwWaitUntil(r *mpi.Rank, st *rworkerState, pt *PhaseTimer, deadline des.Time) bool {
	for {
		rt.rwCheckpoint(r, st, pt)
		if rt.rwAnyReady(st) {
			return true
		}
		if r.Now() >= deadline {
			return false
		}
		if !r.WaitEventUntil(deadline) {
			return false
		}
	}
}

// rwAnyReady reports whether any protocol receive has completed.
func (rt *runtime) rwAnyReady(st *rworkerState) bool {
	for _, q := range []*mpi.Request{st.repReq, st.offReq, st.tokReq, st.ctlReq} {
		if q != nil && q.Done() {
			return true
		}
	}
	return false
}

// rwRetire drops completed fire-and-forget sends.
func (rt *runtime) rwRetire(st *rworkerState) {
	kept := st.pending[:0]
	for _, q := range st.pending {
		if !q.Done() {
			kept = append(kept, q)
		}
	}
	st.pending = kept
}

// rwDrain handles every already-arrived control message, offset list, and
// sync token, reposting each persistent receive.
func (rt *runtime) rwDrain(r *mpi.Rank, pt *PhaseTimer, st *rworkerState) {
	for {
		switch {
		case st.ctlReq.Done():
			cm := st.ctlReq.Message().Payload.(ctlMsg)
			st.ctlReq = r.Irecv(st.boss, tagControl)
			if cm.Shutdown {
				st.shutdown = true
			} else {
				st.nudges++
			}
		case st.offReq != nil && st.offReq.Done():
			om := st.offReq.Message().Payload.(offsetMsg)
			st.offReq = r.Irecv(st.boss, tagOffsets)
			rt.rwOffsets(r, pt, st, om)
		case !st.awaitReply && st.repReq.Done():
			// A replayed or late work reply with no request outstanding
			// (the master answered both the original and a resent request).
			// It must be consumed here: an idle worker parks on "any
			// receive completed", and a done repReq nobody collects would
			// spin that park forever at constant virtual time.
			st.repReq.Message()
			st.repReq = r.Irecv(st.boss, tagWorkReply)
			rt.count("fault.stale_replies", 1)
		case st.tokReq != nil && st.tokReq.Done():
			tk := st.tokReq.Message().Payload.(tokMsg)
			st.tokReq = r.Irecv(st.boss, tagSyncToken)
			if tk.Inc == r.Incarnation() && tk.Sync {
				pt.Switch(PhaseSync)
				st.g.querySyn.Arrive(r)
			}
		default:
			return
		}
	}
}

// rwRequest asks the master for work and awaits the matching reply,
// resending the same sequence number every half-lease until one arrives
// (request or reply may be lost to Drop events). Returns (task, true) for an
// assignment, (zero, false) for "no work right now" or shutdown.
func (rt *runtime) rwRequest(r *mpi.Rank, pt *PhaseTimer, st *rworkerState) (task, bool) {
	cfg := rt.cfg
	st.seq++
	st.awaitReply = true
	defer func() { st.awaitReply = false }()
	req := workReqMsg{Seq: st.seq, Inc: r.Incarnation()}
	first := true
	for {
		pt.Switch(PhaseDataDist)
		if !first {
			rt.count("fault.request_resends", 1)
		}
		first = false
		st.pending = append(st.pending,
			r.Isend(st.boss, tagWorkRequest, requestMsgBytes, req))
		deadline := r.Now() + cfg.effLease()/2
		for {
			rt.rwDrain(r, pt, st)
			if st.shutdown {
				return task{}, false
			}
			if st.repReq.Done() {
				rep := st.repReq.Message().Payload.(workReplyMsg)
				st.repReq = r.Irecv(st.boss, tagWorkReply)
				if rep.Seq != st.seq {
					continue // stale replay of an earlier sequence
				}
				if !st.haveBase {
					st.haveBase = true
					st.flushBase = rep.Flushed
				}
				if rep.Has {
					return rep.T, true
				}
				return task{}, false
			}
			pt.Switch(PhaseDataDist)
			if !rt.rwWaitUntil(r, st, pt, deadline) {
				break // timeout: resend the same request
			}
		}
	}
}

// rwTask models one (query, fragment) search under the resilient protocol:
// the WW-Coll run-ahead gate, compute (scaled by any straggler factor),
// local merge, and the score send.
func (rt *runtime) rwTask(r *mpi.Rank, pt *PhaseTimer, st *rworkerState, t task) {
	cfg := rt.cfg
	bytes := rt.wl.TaskBytes(t.Q, t.F)
	count := rt.wl.TaskCount(t.Q, t.F)

	// WW-Coll run-ahead gate (§2.3), with a liveness valve: during recovery
	// an earlier batch may be unable to flush until THIS worker finishes its
	// current task and frees itself for re-dispatched work, so the gate gives
	// up after one lease period rather than deadlock the run.
	if cfg.Strategy == WWColl {
		need := (t.Q - st.g.loQ) / cfg.QueriesPerWrite
		gateDeadline := r.Now() + cfg.effLease()
		for st.flushBase+st.initSeen < need && !st.shutdown {
			pt.Switch(PhaseDataDist)
			if !rt.rwWaitUntil(r, st, pt, gateDeadline) {
				break
			}
			rt.rwDrain(r, pt, st)
		}
		if st.shutdown {
			return
		}
	}

	if cfg.Segmentation == QuerySeg && cfg.DatabaseBytes > cfg.WorkerMemoryBytes {
		pt.Switch(PhaseIO)
		rt.dbFile.ReadAt(r, cfg.WorkerMemoryBytes, cfg.DatabaseBytes-cfg.WorkerMemoryBytes)
	}

	pt.Switch(PhaseCompute)
	d := cfg.Compute.TaskTime(bytes, cfg.ComputeSpeed)
	if f := rt.faults.ComputeFactor(r.Rank()); f != 1 {
		d = des.Time(float64(d) * f)
	}
	r.Compute(d)

	if cfg.Strategy.WorkerWriting() {
		pt.Switch(PhaseMerge)
		rt.mergeSleep(r, cfg.mergeTime(st.mergeAcc[t.Q], bytes))
		st.mergeAcc[t.Q] += bytes
	}

	pt.Switch(PhaseGather)
	wire := int64(count) * cfg.ScoreEntryBytes
	if cfg.Strategy == MW {
		wire += bytes
	}
	st.pending = append(st.pending,
		r.Isend(st.boss, tagScores, wire,
			scoreMsg{Task: t, Count: count, ResultBytes: bytes}))
}

// rwOffsets handles one offset list: incarnation filtering, (batch, wave)
// deduplication, the write itself, the durability ack, and the optional
// query-sync arrival. A duplicate wave (the master resent it because our ack
// looked overdue) is re-acked without rewriting — writes stay exactly-once.
func (rt *runtime) rwOffsets(r *mpi.Rank, pt *PhaseTimer, st *rworkerState, om offsetMsg) {
	if om.Inc != r.Incarnation() {
		return // addressed to a dead predecessor of this rank
	}
	key := [2]int{om.Batch, om.Wave}
	dup := st.seenWave[key]
	if !dup {
		st.seenWave[key] = true
		if om.Wave == 0 {
			st.initSeen++
		}
		rt.rwWrite(r, pt, st, om)
	}
	var bytes int64
	for _, res := range om.Placements {
		bytes += res.Size
	}
	st.pending = append(st.pending,
		r.Isend(st.boss, tagWriteAck, ackMsgBytes,
			ackMsg{Batch: om.Batch, Wave: om.Wave, Bytes: bytes}))
	if !dup && om.Sync {
		pt.Switch(PhaseSync)
		st.g.querySyn.Arrive(r)
	}
}

// rwWrite performs this worker's share of one batch wave. A Fallback wave
// (collective group tainted by a death, or any recovery wave under WW-Coll)
// uses individual list I/O instead of the collective round.
func (rt *runtime) rwWrite(r *mpi.Rank, pt *PhaseTimer, st *rworkerState, om offsetMsg) {
	cfg := rt.cfg
	g := st.g
	segs := rt.placementsToSegments(om.Placements)
	var segBytes int64
	for _, s := range segs {
		segBytes += s.Length
	}
	if segBytes > 0 {
		pt.Switch(PhaseIO)
		rt.mergeSleep(r, des.BytesOver(segBytes, cfg.FormatBandwidth))
	}
	if cfg.Strategy == WWColl && !om.Fallback {
		if cfg.CollMethod == romio.TwoPhase {
			pt.Switch(PhaseDataDist)
			g.collEntry.Arrive(r)
		}
		pt.Switch(PhaseIO)
		g.collGroup.WriteAll(r, segs)
		if cfg.SyncEveryWrite {
			rt.file.Sync(r)
		}
		rt.stampFlush(r.Proc().Name(), g, om.Batch)
		// Resilient in-run readback is always individual: a collective read
		// round would wedge on taint or membership change mid-recovery.
		rt.rbInRunWorker(r, pt, segs)
		return
	}
	if len(segs) == 0 {
		return
	}
	pt.Switch(PhaseIO)
	rt.file.WriteSegs(r, segs)
	if cfg.SyncEveryWrite {
		rt.file.Sync(r)
	}
	rt.stampFlush(r.Proc().Name(), g, om.Batch)
	rt.rbInRunWorker(r, pt, segs)
}
