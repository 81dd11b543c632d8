package romio

import (
	"sort"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

// This file holds the romio layer's resumable operations: the individual
// noncontiguous write (WriteSegsOp) and the collective write (CollWriteOp),
// in the same op/Step form as mpi's and pvfs's ops: Init arms an op, and the
// rank's machine calls Step after every resume until it reports done.

// StartReadAt arms op as rank r's individual contiguous read (fetch
// captured pieces with op.ReadPieces after completion).
func (f *File) StartReadAt(op *pvfs.IssueOp, r *mpi.Rank, off, n int64) {
	op.InitRead(r.Proc(), f.pv, f.port(r), off, n)
}

// StartWriteAt arms op as rank r's individual contiguous write of n bytes at
// off holding stream content from src (pvfs.Segment.Src).
func (f *File) StartWriteAt(op *pvfs.IssueOp, r *mpi.Rank, off, n, src int64) {
	op.InitWrite(r.Proc(), f.pv, f.port(r), off, n, src)
}

// StartSync arms op as rank r's file sync (MPI_File_sync).
func (f *File) StartSync(op *pvfs.IssueOp, r *mpi.Rank) {
	op.InitSync(r.Proc(), f.pv, f.port(r))
}

// WriteSegsOp is an individual noncontiguous write of a segment list using
// the hinted ADIO method, as a resumable operation.
type WriteSegsOp struct {
	f     *File
	r     *mpi.Rank
	segs  []pvfs.Segment
	hints Hints
	issue pvfs.IssueOp
	pc    uint8

	// Posix state: next segment to write.
	i     int
	armed bool

	// Data-sieving state: the remaining sorted segments and the current
	// window (see the method comment on the sieve states below).
	sorted []pvfs.Segment
	winLo  int64
	winN   int64
	last   int64
	j      int
}

const (
	segsDone uint8 = iota
	segsPosix
	segsList
	segsSieveHead
	segsSieveRead
	segsSieveWrite
)

// Init arms the op for rank r over segs using the file's open-time hints.
// An empty list completes immediately.
func (op *WriteSegsOp) Init(f *File, r *mpi.Rank, segs []pvfs.Segment) {
	op.InitHinted(f, r, segs, f.hints)
}

// InitHinted arms the op with a per-call hint override: the individual-write
// method and sieve window come from h instead of the file's open-time hints.
func (op *WriteSegsOp) InitHinted(f *File, r *mpi.Rank, segs []pvfs.Segment, h Hints) {
	op.f, op.r, op.segs, op.hints = f, r, segs, h
	if len(segs) == 0 {
		op.pc = segsDone
		return
	}
	switch h.IndWriteMethod {
	case Posix:
		op.i, op.armed = 0, false
		op.pc = segsPosix
	case ListIO:
		op.issue.InitWriteList(r.Proc(), f.pv, f.port(r), segs)
		op.pc = segsList
	case DataSieve:
		// ROMIO's generic write data sieving: for each sieve-buffer-sized
		// window of the segments' extent that contains data, read the
		// window, overlay the segments, and write it back contiguously.
		op.sorted = append([]pvfs.Segment(nil), segs...)
		sort.Slice(op.sorted, func(i, j int) bool {
			return op.sorted[i].Offset < op.sorted[j].Offset
		})
		op.pc = segsSieveHead
	}
}

// Step drives the write; true means every segment is on storage.
func (op *WriteSegsOp) Step() bool {
	f, r := op.f, op.r
	p, port := r.Proc(), f.port(r)
	for {
		switch op.pc {
		case segsDone:
			return true
		case segsPosix:
			// One contiguous file-system write per segment, sequentially —
			// MPI_File_write without optimization (paper §2.3).
			for op.i < len(op.segs) {
				if !op.armed {
					s := op.segs[op.i]
					op.issue.InitWrite(p, f.pv, port, s.Offset, s.Length, s.Src)
					op.armed = true
				}
				if !op.issue.Step() {
					return false
				}
				op.armed = false
				op.i++
			}
			return true
		case segsList:
			return op.issue.Step()
		case segsSieveHead:
			if len(op.sorted) == 0 {
				return true
			}
			winLo := op.sorted[0].Offset
			winHi := winLo + op.hints.sieveBuffer()
			// Collect the segments that start inside this window.
			j := 0
			last := winLo
			for j < len(op.sorted) && op.sorted[j].Offset < winHi {
				if end := op.sorted[j].Offset + op.sorted[j].Length; end > last {
					last = end
				}
				j++
			}
			if last > winHi {
				last = winHi
			}
			op.winLo, op.last, op.j = winLo, last, j
			op.winN = last - winLo
			// Read-modify-write the window. The read back is what makes data
			// sieving expensive for sparse write patterns.
			op.issue.InitRead(p, f.pv, port, winLo, op.winN)
			op.pc = segsSieveRead
		case segsSieveRead:
			if !op.issue.Step() {
				return false
			}
			img := op.issue.ReadPieces() // nil unless capturing
			if img == nil {
				op.issue.InitWrite(p, f.pv, port, op.winLo, op.winN, pvfs.Zero)
				op.pc = segsSieveWrite
				continue
			}
			// Overlay the window's segments on the image read back, in
			// sorted order, and write the whole window as one range.
			for k := 0; k < op.j; k++ {
				s := op.sorted[k]
				if hi := min(s.End(), op.last); hi > s.Offset {
					img = pvfs.Overlay(img, s.Sub(s.Offset, hi))
				}
			}
			op.issue.InitWriteImage(p, f.pv, port, img)
			op.pc = segsSieveWrite
		case segsSieveWrite:
			if !op.issue.Step() {
				return false
			}
			// Any tail of a window segment beyond the window is re-sliced
			// into the next iteration.
			var carry []pvfs.Segment
			for k := 0; k < op.j; k++ {
				s := op.sorted[k]
				if s.End() > op.last {
					carry = append(carry, s.Sub(op.last, s.End()))
				}
			}
			rest := append(carry, op.sorted[op.j:]...)
			sort.Slice(rest, func(a, b int) bool { return rest[a].Offset < rest[b].Offset })
			op.sorted = rest
			op.pc = segsSieveHead
		}
	}
}

// CollWriteOp is one collective write round (MPI_File_write_at_all) as a
// resumable operation — registration, entry synchronization, plan
// processing, data redistribution, aggregator writes, and exit
// synchronization, "the inherent synchronization of collective I/O" whose
// cost the paper measures.
type CollWriteOp struct {
	g    *Group
	r    *mpi.Rank
	segs []pvfs.Segment

	round     *collRound
	plan      *collPlan
	barrier   mpi.BarrierOp
	issue     pvfs.IssueOp
	planStart des.Time

	// Exchange state.
	tag      int
	sends    []*mpi.Request
	gathered []pvfs.Segment
	expected int
	recvd    int
	rreq     *mpi.Request
	rwait    mpi.WaitOp
	sendWait mpi.WaitAllOp

	pc uint8
}

const (
	collListWrite uint8 = iota // ListSync: own-segments list write in flight
	collEntry                  // two-phase: parked at the entry barrier
	collPlanSleep              // two-phase: paying the plan-processing cost
	collRecv                   // aggregator: gathering contributed pieces
	collAggWrite               // aggregator: domain list write in flight
	collSendWait               // waiting out the outbound transfers
	collExit                   // parked at the exit barrier
)

// Init registers rank r's contribution for the current round and arms the
// op. Every member must arm its group's rounds in the same order:
// registration and round bookkeeping happen here.
func (op *CollWriteOp) Init(g *Group, r *mpi.Rank, segs []pvfs.Segment) {
	op.InitHinted(g, r, segs, g.f.hints)
}

// InitHinted is Init with a per-round hint override. The first rank to
// arrive stamps the round's hints; every later arrival follows the stamped
// round (the MPI_File_write_at_all contract requires all members to agree on
// the round anyway, and the adaptive master hands every worker the same
// hints per batch).
func (op *CollWriteOp) InitHinted(g *Group, r *mpi.Rank, segs []pvfs.Segment, h Hints) {
	if _, ok := g.indexOf[r.Rank()]; !ok {
		panic("romio: rank not in collective group")
	}
	op.g, op.r, op.segs = g, r, segs
	op.plan = nil
	op.sends = op.sends[:0]
	op.gathered = nil
	op.rreq = nil
	if g.cur == nil {
		g.cur = &collRound{id: g.round, segs: make(map[int][]pvfs.Segment, len(g.ranks)), hints: h}
		g.round++
	}
	op.round = g.cur
	op.round.segs[r.Rank()] = segs

	if op.round.hints.CollWriteMethod == ListSync {
		// The paper's proposed collective: each rank writes its own
		// segments with native list I/O as soon as it arrives, with a
		// forced synchronization only at the END of the I/O operation —
		// no entry barrier, no pattern exchange, no redistribution.
		if len(segs) > 0 {
			op.issue.InitWriteList(r.Proc(), g.f.pv, g.f.port(r), segs)
			op.pc = collListWrite
			return
		}
		op.depart()
		return
	}
	// Phase 0: everyone synchronizes so the exchange plan is complete.
	op.barrier.Init(g.entry, r)
	op.pc = collEntry
}

// depart retires this rank from the round (last one out clears it) and arms
// the exit barrier — phase 3 of every path through the collective.
func (op *CollWriteOp) depart() {
	g := op.g
	op.round.departed++
	if op.round.departed >= len(g.ranks) {
		g.cur = nil
	}
	op.barrier.Init(g.exit, op.r)
	op.pc = collExit
}

// Step drives the round; true means the exit synchronization has released —
// the "inherent synchronization of collective I/O" whose cost the paper
// measures.
func (op *CollWriteOp) Step() bool {
	g, r := op.g, op.r
	p := r.Proc()
	for {
		switch op.pc {
		case collListWrite:
			if !op.issue.Step() {
				return false
			}
			op.depart()
		case collEntry:
			if !op.barrier.Step() {
				return false
			}
			if op.round.plan == nil {
				op.round.plan = g.buildPlan(op.round)
			}
			op.plan = op.round.plan
			if op.plan == nil { // nil plan: nobody had data this round
				op.depart()
				continue
			}
			// Phase 1: every participant processes the union access pattern
			// (ROMIO flattens and domain-assigns all ranks' offsets locally).
			perSeg := op.round.hints.TwoPhasePlanPerSeg
			if perSeg <= 0 {
				perSeg = 400 * des.Microsecond
			}
			totalSegs := 0
			for _, rsegs := range op.round.segs {
				totalSegs += len(rsegs)
			}
			op.planStart = r.Now()
			op.pc = collPlanSleep
			p.Sleep(des.Time(totalSegs) * perSeg)
			if p.Yielded() {
				return false
			}
		case collPlanSleep:
			if c := r.World().Causal(); c != nil {
				// Flattening the union pattern is I/O software overhead.
				c.Busy(p, causal.CatIOService, op.planStart, r.Now())
			}
			// Phase 2: redistribute to aggregators and write the domains.
			op.startExchange()
		case collRecv:
			// Aggregators gather their domain.
			for op.recvd < op.expected {
				if op.rreq == nil {
					op.rreq = r.Irecv(mpi.AnySource, op.tag)
					op.rwait.Init(r, op.rreq)
				}
				if !op.rwait.Step() {
					return false
				}
				op.gathered = append(op.gathered, op.rreq.Message().Payload.([]pvfs.Segment)...)
				op.rreq = nil
				op.recvd++
			}
			if len(op.gathered) > 0 {
				coalesced := coalesce(op.gathered, g.f.pv.Captures())
				op.issue.InitWriteList(p, g.f.pv, g.f.port(r), coalesced)
				op.pc = collAggWrite
				continue
			}
			op.sendWait.Init(r, op.sends)
			op.pc = collSendWait
		case collAggWrite:
			if !op.issue.Step() {
				return false
			}
			op.sendWait.Init(r, op.sends)
			op.pc = collSendWait
		case collSendWait:
			if !op.sendWait.Step() {
				return false
			}
			op.depart()
		case collExit:
			return op.barrier.Step()
		}
	}
}

// startExchange launches the redistribution: outbound transfers to
// aggregators in deterministic (sorted-rank) order, self-contributions kept
// local, and — on aggregators — the gather accounting. Sends and receives
// pair up without negotiation because every member executes the same plan.
func (op *CollWriteOp) startExchange() {
	r, plan := op.r, op.plan
	me := r.Rank()
	op.tag = collTagBase + int(op.round.id&0xFFFF)

	var local []pvfs.Segment
	mine := plan.sendPieces[me]
	for _, agg := range plan.aggregators {
		pieces, ok := mine[agg]
		if !ok {
			continue
		}
		if agg == me {
			local = append(local, pieces...) // no self-message
			continue
		}
		var bytes int64
		for _, pc := range pieces {
			bytes += pc.Length
		}
		op.sends = append(op.sends, r.Isend(agg, op.tag, bytes, pieces))
	}

	if isAggregator(me, plan) {
		expected := 0
		for contributor, m := range plan.sendPieces {
			if contributor == me {
				continue
			}
			if _, ok := m[me]; ok {
				expected++
			}
		}
		op.expected, op.recvd = expected, 0
		op.gathered = append([]pvfs.Segment(nil), local...)
		op.pc = collRecv
		return
	}
	op.sendWait.Init(r, op.sends)
	op.pc = collSendWait
}
