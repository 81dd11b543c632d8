package core

import (
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// masterState is a group master's bookkeeping for Algorithm 1.
type masterState struct {
	nextQ, nextF int
	totalTasks   int
	processed    int
	notified     int // workers told that all queries are scheduled

	remaining map[int]int   // fragments outstanding per query
	assigned  map[int][]int // query -> fragment -> worker rank
	mergeAcc  map[int]int64 // accumulated merge bytes per query
	complete  map[int]bool  // query fully processed

	scoreReqs   []*mpi.Request // outstanding result receives
	offsetSends []*mpi.Request // offset-list / token sends in flight
	flushed     int            // group-local batches flushed so far
}

// master runs Algorithm 1 for one group: distribute (query, fragment)
// tasks on demand, gather scores (and results under MW), merge, and drive
// the per-batch result flush for the configured I/O strategy.
func (rt *runtime) master(r *mpi.Rank, g *group) {
	cfg := rt.cfg
	pt := NewPhaseTimer(rt.sim)
	pt.Trace(cfg.Sink, r.Proc().Name())
	rt.timers[r.Rank()] = pt

	// Step 1: set up the output file and distribute input variables.
	pt.Switch(PhaseSetup)
	rt.openFile(r, g)
	if cfg.Strategy == WWColl || (rt.ad != nil && rt.ad.hasColl) {
		g.collGroup = rt.file.NewGroup(g.workers)
	}
	g.team.Bcast(r, g.masterRank, configMsgBytes, "input-variables")

	st := &masterState{
		totalTasks: (g.hiQ - g.loQ) * cfg.Workload.NumFragments,
		remaining:  make(map[int]int),
		assigned:   make(map[int][]int),
		mergeAcc:   make(map[int]int64),
		complete:   make(map[int]bool),
	}
	st.nextQ = g.loQ
	for q := g.loQ; q < g.hiQ; q++ {
		st.remaining[q] = cfg.Workload.NumFragments
		st.assigned[q] = make([]int, cfg.Workload.NumFragments)
	}

	for {
		switch {
		case st.notified < len(g.workers):
			// Steps 3–9: serve the next work request (blocking receive, as
			// the paper's master does to prioritize distribution). A serving
			// master draws tasks from its admission queue instead of the
			// next-in-batch counter (serving.go).
			pt.Switch(PhaseDataDist)
			m := r.Recv(mpi.AnySource, tagWorkRequest)
			var t task
			var have bool
			if rt.serve != nil {
				t, have = rt.serveNext(r, pt, g, st)
				pt.Switch(PhaseDataDist)
			} else if st.nextQ < g.hiQ {
				t = task{Q: st.nextQ, F: st.nextF}
				if rt.ad != nil {
					t.Strat = rt.adaptTaskStrat(g, st.nextQ)
				}
				have = true
				st.nextF++
				if st.nextF == cfg.Workload.NumFragments {
					st.nextF = 0
					st.nextQ++
				}
			}
			if have {
				r.Send(m.Source, tagWorkReply, replyMsgBytes, t)
				pt.Switch(PhaseGather)
				st.scoreReqs = append(st.scoreReqs, r.Irecv(m.Source, tagScores))
			} else {
				r.Send(m.Source, tagWorkReply, replyMsgBytes, nil)
				st.notified++
			}
		case st.processed < st.totalTasks:
			// All workers notified; only stragglers' results remain.
			pt.Switch(PhaseGather)
			r.WaitAny(st.scoreReqs)
		default:
			// Steps 20–22: everything scheduled, processed, and flushed.
			pt.Switch(PhaseGather)
			r.WaitAll(st.offsetSends...)
			pt.Switch(PhaseSync)
			rt.final.Arrive(r)
			// The barrier released, so every worker write is durable — the
			// safe moment for the post-run verified read of this group's
			// committed extents.
			rt.rbPostRun(r, pt, g)
			pt.Finish()
			return
		}
		rt.masterDrain(r, pt, g, st)
	}
}

// masterDrain processes every completed score receive: merge accounting,
// query completion, and batch flushing (step 10 and steps 14–18).
func (rt *runtime) masterDrain(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState) {
	cfg := rt.cfg
	pt.Switch(PhaseGather)
	kept := st.scoreReqs[:0]
	var ready []*mpi.Message
	for _, req := range st.scoreReqs {
		if req.Done() {
			ready = append(ready, req.Message())
		} else {
			kept = append(kept, req)
		}
	}
	st.scoreReqs = kept
	for _, m := range ready {
		sm := m.Payload.(scoreMsg)
		q := sm.Task.Q
		// Merge the arriving ordered list into the master's ordered list:
		// full results under MW, scores only under worker-writing (§2).
		newBytes := int64(sm.Count) * cfg.ScoreEntryBytes
		if rt.taskStrat(sm.Task) == MW {
			newBytes += sm.ResultBytes
		}
		rt.mergeSleep(r, cfg.mergeTime(st.mergeAcc[q], newBytes))
		st.mergeAcc[q] += newBytes
		st.assigned[q][sm.Task.F] = m.Source
		st.remaining[q]--
		st.processed++
		if st.remaining[q] == 0 {
			st.complete[q] = true
			rt.serveStampGathered(q)
			rt.adaptQueryDone(q)
		}
	}
	rt.masterFlush(r, pt, g, st)
}

// masterFlush flushes every ready batch, in order: the master writes (MW)
// or distributes offset lists (WW strategies). Serving runs relax the
// in-order restriction (serveFlush).
func (rt *runtime) masterFlush(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState) {
	if rt.serve != nil {
		rt.serveFlush(r, pt, g, st)
		return
	}
	for st.flushed < len(g.batches) {
		b := g.batches[st.flushed]
		allDone := true
		for q := b.LoQ; q < b.HiQ; q++ {
			if !st.complete[q] {
				allDone = false
				break
			}
		}
		if !allDone {
			return
		}
		rt.flushBatch(r, pt, g, st, st.flushed)
		st.flushed++
	}
}

// flushBatch performs one batch flush — the MW write+sync (step 18) or the
// WW offset-list distribution (steps 15–16) — for group-local batch bi, then
// retires completed offset-list sends.
func (rt *runtime) flushBatch(r *mpi.Rank, pt *PhaseTimer, g *group, st *masterState, bi int) {
	cfg := rt.cfg
	b := g.batches[bi]
	gb := g.batchBase + bi
	// Resolve the batch's write strategy and hints: the controller's stamped
	// decision under adaptive I/O (normally made at dispatch; deciding here
	// covers a batch flushed without dispatches), the config otherwise.
	strat := cfg.Strategy
	var hints romio.Hints
	if rt.ad != nil {
		strat = rt.adaptTaskStrat(g, b.LoQ)
		hints = rt.ad.decisions[gb].hints
	}
	if strat == MW {
		// Step 18: format the merged results (the mpiBLAST master's
		// serialization bottleneck), then one large contiguous write
		// followed by sync. Workers drain their in-flight tasks during
		// this stall — which is why the paper finds forced
		// synchronization nearly free under MW.
		pt.Switch(PhaseIO)
		if rt.ad != nil {
			rt.adaptFlushStart(gb, 1)
		}
		rt.mergeSleep(r, des.BytesOver(b.Bytes, cfg.FormatBandwidth))
		rt.file.WriteAt(r, b.Region, b.Bytes, b.Region)
		if cfg.SyncEveryWrite {
			rt.file.Sync(r)
		}
		rt.flushTimes[gb] = rt.sim.Now()
		rt.serveStampDone(gb, r.Proc().Name())
		if rt.ad != nil {
			rt.adaptStamped(gb, r.Proc().Name())
		}
		rt.rbInRunMaster(r, pt, b)
		pt.Switch(PhaseGather)
		if rt.ad != nil {
			// Adaptive MW batches still send (empty) offset lists: the
			// workers' batch tracker, and the QuerySync barrier trigger.
			for _, w := range g.workers {
				st.offsetSends = append(st.offsetSends,
					r.Isend(w, tagOffsets, offsetHdrBytes,
						offsetMsg{Batch: bi, Strat: MW, Hints: hints}))
			}
		} else if cfg.QuerySync {
			for _, w := range g.workers {
				st.offsetSends = append(st.offsetSends,
					r.Isend(w, tagSyncToken, tokenMsgBytes, bi))
			}
		}
	} else {
		// Steps 15–16: build and send per-worker offset lists. Every
		// worker gets a message (possibly empty) so it can track batch
		// progress and, under WW-Coll, join the collective round.
		perWorker := make(map[int][]search.Result, len(g.workers))
		for q := b.LoQ; q < b.HiQ; q++ {
			qry := &rt.wl.Queries[q]
			for _, res := range qry.Results {
				w := st.assigned[q][res.Fragment]
				perWorker[w] = append(perWorker[w], res)
			}
		}
		if rt.ad != nil {
			// A collective round is stamped by every group worker; an
			// individual WW batch only by the workers holding placements.
			writers := len(g.workers)
			if strat != WWColl {
				writers = 0
				for _, w := range g.workers {
					if len(perWorker[w]) > 0 {
						writers++
					}
				}
			}
			rt.adaptFlushStart(gb, writers)
		}
		for _, w := range g.workers {
			msg := offsetMsg{Batch: bi, Placements: perWorker[w]}
			if rt.ad != nil {
				msg.Strat, msg.Hints = strat, hints
			}
			bytes := int64(offsetHdrBytes) + int64(len(perWorker[w]))*offsetPerResult
			st.offsetSends = append(st.offsetSends,
				r.Isend(w, tagOffsets, bytes, msg))
		}
		// Worker-writing durability is stamped by the workers as their
		// writes (and syncs) complete; see workerFSM.stepWrite.
	}
	// Step 16: retire completed offset-list sends.
	kept := st.offsetSends[:0]
	for _, req := range st.offsetSends {
		if !req.Done() {
			kept = append(kept, req)
		}
	}
	st.offsetSends = kept
}
