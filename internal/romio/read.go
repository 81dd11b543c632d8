package romio

import (
	"sort"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

// This file holds the romio layer's read-side resumable operations, the
// mirror of the write side in op.go: the individual noncontiguous read
// (ReadSegsOp, with POSIX / list / data-sieving ADIO methods) and the
// collective read (CollReadOp, two-phase or list-sync). Both serve
// goroutine and FSM processes identically; the blocking File.ReadSegs
// wrapper is Init + one Step.

// collReadTagBase keeps collective-read exchange tags disjoint from the
// collective-write tag space, so interleaved read and write rounds can
// never cross-match.
const collReadTagBase = 1 << 21

// ReadSegsOp is an individual noncontiguous read of a segment list as a
// resumable operation. The method mirrors the write side: Posix issues one
// contiguous read per segment sequentially, ListIO one batched list-I/O
// request per server, and DataSieve reads whole sieve-buffer windows and
// extracts the wanted ranges (read sieving has no write-back, so its only
// cost over list I/O is the extra bytes pulled through the servers).
type ReadSegsOp struct {
	f      *File
	r      *mpi.Rank
	method Method
	segs   []pvfs.Segment
	pieces [][]pvfs.Segment // per original segment; nil entries unless capturing
	issue  pvfs.IssueOp
	pc     uint8

	// Posix state: next segment to read.
	i     int
	armed bool

	// Data-sieving state: the remaining sorted sub-ranges and the current
	// window (same windowing as the write sieve in WriteSegsOp).
	sorted []sieveRange
	winLo  int64
	winN   int64
	last   int64
	j      int
}

// sieveRange is a pending sub-range of one original segment: where it sits
// in the file and which segment's pieces it extends.
type sieveRange struct {
	off, n int64
	idx    int // original segment index
}

const (
	rsegsDone uint8 = iota
	rsegsPosix
	rsegsList
	rsegsSieveHead
	rsegsSieveRead
)

// Init arms the op for rank r over segs using the given ADIO read method.
// An empty list completes immediately.
func (op *ReadSegsOp) Init(f *File, r *mpi.Rank, method Method, segs []pvfs.Segment) {
	op.f, op.r, op.method, op.segs = f, r, method, segs
	op.pieces = nil
	if len(segs) == 0 {
		op.pc = rsegsDone
		return
	}
	op.pieces = make([][]pvfs.Segment, len(segs))
	switch method {
	case Posix:
		op.i, op.armed = 0, false
		op.pc = rsegsPosix
	case ListIO:
		op.issue.InitReadList(r.Proc(), f.pv, f.port(r), segs)
		op.pc = rsegsList
	case DataSieve:
		op.sorted = op.sorted[:0]
		for i, s := range segs {
			op.sorted = append(op.sorted, sieveRange{off: s.Offset, n: s.Length, idx: i})
		}
		sort.Slice(op.sorted, func(a, b int) bool {
			return op.sorted[a].off < op.sorted[b].off
		})
		op.pc = rsegsSieveHead
	}
}

// Step drives the read; true means every segment's bytes are in from
// storage (and, when the file system captures content, described by
// Pieces()).
func (op *ReadSegsOp) Step() bool {
	f, r := op.f, op.r
	p, port := r.Proc(), f.port(r)
	for {
		switch op.pc {
		case rsegsDone:
			return true
		case rsegsPosix:
			// One contiguous file-system read per segment, sequentially —
			// MPI_File_read without optimization.
			for op.i < len(op.segs) {
				if !op.armed {
					s := op.segs[op.i]
					op.issue.InitRead(p, f.pv, port, s.Offset, s.Length)
					op.armed = true
				}
				if !op.issue.Step() {
					return false
				}
				op.pieces[op.i] = op.issue.ReadPieces()
				op.armed = false
				op.i++
			}
			op.pc = rsegsDone
			return true
		case rsegsList:
			if !op.issue.Step() {
				return false
			}
			if got := op.issue.ReadSegsPieces(); got != nil {
				copy(op.pieces, got)
			}
			op.pc = rsegsDone
			return true
		case rsegsSieveHead:
			if len(op.sorted) == 0 {
				op.pc = rsegsDone
				return true
			}
			winLo := op.sorted[0].off
			winHi := winLo + f.hints.SieveBufferSize
			// Collect the ranges that start inside this window.
			j := 0
			last := winLo
			for j < len(op.sorted) && op.sorted[j].off < winHi {
				if end := op.sorted[j].off + op.sorted[j].n; end > last {
					last = end
				}
				j++
			}
			if last > winHi {
				last = winHi
			}
			op.winLo, op.last, op.j = winLo, last, j
			op.winN = last - winLo
			op.issue.InitRead(p, f.pv, port, winLo, op.winN)
			op.pc = rsegsSieveRead
		case rsegsSieveRead:
			if !op.issue.Step() {
				return false
			}
			img := op.issue.ReadPieces() // nil unless capturing
			var carry []sieveRange
			for k := 0; k < op.j; k++ {
				s := op.sorted[k]
				hi := min(s.off+s.n, op.last)
				if img != nil {
					// A segment's windows come in file order, so its pieces
					// extend in order too.
					op.pieces[s.idx] = pvfs.AppendRange(op.pieces[s.idx], img, s.off, hi)
				}
				// Any tail beyond the window re-slices into the next pass.
				if s.off+s.n > op.last {
					carry = append(carry, sieveRange{off: op.last, n: s.off + s.n - op.last, idx: s.idx})
				}
			}
			rest := append(carry, op.sorted[op.j:]...)
			sort.Slice(rest, func(a, b int) bool { return rest[a].off < rest[b].off })
			op.sorted = rest
			op.pc = rsegsSieveHead
		}
	}
}

// Pieces returns, per original segment, the descriptor pieces read: they
// tile the segment in file order, with file gaps as pvfs.Zero pieces.
// Entries are nil unless the file system captures content. Valid only
// after Step has returned true.
func (op *ReadSegsOp) Pieces() [][]pvfs.Segment { return op.pieces }

// ReadSegs performs an individual noncontiguous read of segs from rank r
// using the given ADIO method, returning the per-segment pieces (nil
// entries unless the file system captures content). The methods live in
// ReadSegsOp so FSM processes can run them resumably; this wrapper drives
// it to completion for goroutine processes.
func (f *File) ReadSegs(r *mpi.Rank, method Method, segs []pvfs.Segment) [][]pvfs.Segment {
	var op ReadSegsOp
	op.Init(f, r, method, segs)
	op.Step()
	return op.Pieces()
}

// CollReadOp is one collective read round (MPI_File_read_all) as a
// resumable operation, using the group's collective method. Two-phase runs
// the write algorithm in reverse — entry synchronization, union-pattern
// processing, aggregators list-read their file domains, redistribution of
// the data from aggregators back to contributors, exit synchronization.
// ListSync reads each rank's own segments with native list I/O and
// synchronizes only at the end. Read rounds use their own round state and tag space, so they
// interleave safely with write rounds.
type CollReadOp struct {
	g      *Group
	r      *mpi.Rank
	segs   []pvfs.Segment
	pieces [][]pvfs.Segment

	round     *collRound
	plan      *collPlan
	barrier   mpi.BarrierOp
	issue     pvfs.IssueOp
	planStart des.Time

	// Exchange state (aggregator → contributor direction).
	tag      int
	sends    []*mpi.Request
	expected int
	recvd    int
	rreq     *mpi.Request
	rwait    mpi.WaitOp
	sendWait mpi.WaitAllOp

	pc uint8
}

const (
	rcollListRead  uint8 = iota // ListSync: own-segments list read in flight
	rcollEntry                  // two-phase: parked at the entry barrier
	rcollPlanSleep              // two-phase: paying the plan-processing cost
	rcollAggRead                // aggregator: domain list read in flight
	rcollRecv                   // contributor: gathering own pieces back
	rcollSendWait               // waiting out the outbound transfers
	rcollExit                   // parked at the exit barrier
)

// Init registers rank r's read contribution for the current read round and
// arms the op. Like CollWriteOp.Init, every group member must call it for
// every round, in the same order.
func (op *CollReadOp) Init(g *Group, r *mpi.Rank, segs []pvfs.Segment) {
	if _, ok := g.indexOf[r.Rank()]; !ok {
		panic("romio: rank not in collective group")
	}
	op.g, op.r, op.segs = g, r, segs
	op.plan = nil
	op.sends = op.sends[:0]
	op.rreq = nil
	op.pieces = nil
	if len(segs) > 0 {
		op.pieces = make([][]pvfs.Segment, len(segs))
	}
	if g.curRead == nil {
		g.curRead = &collRound{id: g.round, segs: make(map[int][]pvfs.Segment, len(g.ranks)), hints: g.f.hints}
		g.round++
	}
	op.round = g.curRead
	op.round.segs[r.Rank()] = segs

	if g.f.hints.CollWriteMethod == ListSync {
		// Each rank reads its own segments with native list I/O on arrival;
		// the only synchronization is the exit barrier.
		if len(segs) > 0 {
			op.issue.InitReadList(r.Proc(), g.f.pv, g.f.port(r), segs)
			op.pc = rcollListRead
			return
		}
		op.depart()
		return
	}
	op.barrier.Init(g.entry, r)
	op.pc = rcollEntry
}

// depart retires this rank from the read round (last one out clears it) and
// arms the exit barrier.
func (op *CollReadOp) depart() {
	g := op.g
	op.round.departed++
	if op.round.departed >= len(g.ranks) {
		g.curRead = nil
	}
	op.barrier.Init(g.exit, op.r)
	op.pc = rcollExit
}

// fill takes the caller's per-segment pieces from the file's captured
// store. The costed path (reads, redistribution transfers) has already run;
// the aggregators' list reads covered exactly these bytes, so the stored
// extents are the content the exchange delivered — including any corruption
// a fault left behind.
func (op *CollReadOp) fill() {
	if !op.g.f.pv.Captures() {
		return
	}
	for i, s := range op.segs {
		op.pieces[i] = op.g.f.pv.ReadBack(s.Offset, s.Length)
	}
}

// Step drives the round; true means the exit synchronization has released.
func (op *CollReadOp) Step() bool {
	g, r := op.g, op.r
	p := r.Proc()
	for {
		switch op.pc {
		case rcollListRead:
			if !op.issue.Step() {
				return false
			}
			if got := op.issue.ReadSegsPieces(); got != nil {
				copy(op.pieces, got)
			}
			op.depart()
		case rcollEntry:
			if !op.barrier.Step() {
				return false
			}
			if op.round.plan == nil {
				op.round.plan = g.buildPlan(op.round)
			}
			op.plan = op.round.plan
			if op.plan == nil { // nil plan: nobody wanted data this round
				op.depart()
				continue
			}
			// Phase 1: every participant processes the union access pattern,
			// exactly as on the write side.
			perSeg := g.f.hints.TwoPhasePlanPerSeg
			if perSeg <= 0 {
				perSeg = 400 * des.Microsecond
			}
			totalSegs := 0
			for _, rsegs := range op.round.segs {
				totalSegs += len(rsegs)
			}
			op.planStart = r.Now()
			op.pc = rcollPlanSleep
			p.Sleep(des.Time(totalSegs) * perSeg)
			if p.Yielded() {
				return false
			}
		case rcollPlanSleep:
			if c := r.World().Causal(); c != nil {
				c.Busy(p.Name(), causal.CatIOService, op.planStart, r.Now())
			}
			// Phase 2: aggregators read their domains, then scatter the data
			// back to contributors — the write exchange reversed.
			op.startExchange()
		case rcollAggRead:
			if !op.issue.Step() {
				return false
			}
			// Domain data is in; launch the scatter to every contributor
			// that wanted pieces from this domain.
			me := r.Rank()
			for _, contributor := range sortedContributors(op.plan) {
				if contributor == me {
					continue
				}
				pieces, ok := op.plan.sendPieces[contributor][me]
				if !ok {
					continue
				}
				var bytes int64
				for _, pc := range pieces {
					bytes += pc.Length
				}
				op.sends = append(op.sends, r.Isend(contributor, op.tag, bytes, pieces))
			}
			op.pc = rcollRecv
		case rcollRecv:
			// Contributors gather their pieces back from the aggregators.
			for op.recvd < op.expected {
				if op.rreq == nil {
					op.rreq = r.Irecv(mpi.AnySource, op.tag)
					op.rwait.Init(r, op.rreq)
				}
				if !op.rwait.Step() {
					return false
				}
				op.rreq = nil
				op.recvd++
			}
			op.sendWait.Init(r, op.sends)
			op.pc = rcollSendWait
		case rcollSendWait:
			if !op.sendWait.Step() {
				return false
			}
			op.fill()
			op.depart()
		case rcollExit:
			return op.barrier.Step()
		}
	}
}

// startExchange arms phase 2: aggregators begin their coalesced domain list
// read; pure contributors go straight to gathering. Pairing needs no
// negotiation because every member derives the same plan.
func (op *CollReadOp) startExchange() {
	r, plan := op.r, op.plan
	me := r.Rank()
	op.tag = collReadTagBase + int(op.round.id&0xFFFF)

	// How many aggregators owe this rank data (self-owned pieces excluded).
	expected := 0
	if mine, ok := plan.sendPieces[me]; ok {
		for agg := range mine {
			if agg != me {
				expected++
			}
		}
	}
	op.expected, op.recvd = expected, 0

	if isAggregator(me, plan) {
		// Gather every piece in my domain, coalesce, and read it in one
		// list-I/O operation — dense inside a file domain, like the write.
		var domain []pvfs.Segment
		for _, contributor := range sortedContributors(plan) {
			domain = append(domain, plan.sendPieces[contributor][me]...)
		}
		if len(domain) > 0 {
			coalesced := coalesce(domain, false)
			op.issue.InitReadList(r.Proc(), op.g.f.pv, op.g.f.port(r), coalesced)
			op.pc = rcollAggRead
			return
		}
	}
	op.pc = rcollRecv
}

// Pieces returns, per original segment, the descriptor pieces read (as
// ReadSegsOp.Pieces). Entries are nil unless the file system captures
// content. Valid only after Step has returned true.
func (op *CollReadOp) Pieces() [][]pvfs.Segment { return op.pieces }

// sortedContributors returns the plan's contributor ranks in ascending
// order, for deterministic iteration over the sendPieces map.
func sortedContributors(plan *collPlan) []int {
	out := make([]int, 0, len(plan.sendPieces))
	for c := range plan.sendPieces {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
