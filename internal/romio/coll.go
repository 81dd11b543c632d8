package romio

import (
	"sort"

	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

// collTagBase keeps two-phase exchange tags out of the application's tag
// space.
const collTagBase = 1 << 20

// Group is a collective-I/O participant set over a File — the "all workers"
// group in S3aSim's WW-Coll strategy. Every member must run a CollWriteOp
// for every collective round, in the same order, with its (possibly empty)
// segment list; this is the MPI_File_write_at_all contract.
type Group struct {
	f       *File
	ranks   []int
	entry   *mpi.Barrier
	exit    *mpi.Barrier
	indexOf map[int]int // rank -> position in ranks

	round   uint64
	cur     *collRound
	curRead *collRound
}

type collRound struct {
	id       uint64
	segs     map[int][]pvfs.Segment
	plan     *collPlan
	departed int
	// hints are the round creator's effective hints: collective method,
	// cb_nodes, and plan cost all come from here, so a per-batch override
	// (adaptive mode) applies consistently to every member of the round.
	hints Hints
}

// collPlan is the deterministic two-phase exchange plan every member
// derives after the entry barrier.
type collPlan struct {
	lo, hi      int64
	aggregators []int                          // ranks that own file domains
	domains     []int64                        // domain i = [domains[i], domains[i+1])
	sendPieces  map[int]map[int][]pvfs.Segment // contributor -> aggregator -> pieces
}

// NewGroup creates a collective group over the given ranks.
func (f *File) NewGroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("romio: empty collective group")
	}
	g := &Group{
		f:       f,
		ranks:   append([]int(nil), ranks...),
		entry:   f.w.NewBarrier(len(ranks)),
		exit:    f.w.NewBarrier(len(ranks)),
		indexOf: make(map[int]int, len(ranks)),
	}
	sort.Ints(g.ranks)
	for i, rk := range g.ranks {
		g.indexOf[rk] = i
	}
	return g
}

// Size returns the number of participants.
func (g *Group) Size() int { return len(g.ranks) }

// Deregister permanently removes a dead rank from the collective group:
// future rounds are planned over the survivors, and the entry/exit barriers
// shrink — releasing survivors already parked behind the dead rank. The
// engine's fail-stop-at-checkpoints rule guarantees the dead rank is not
// mid-round (a rank that entered a round always completes it), so the
// removal can never invalidate a live exchange plan: a built plan implies
// the entry barrier released, which implies every then-member arrived.
// Unknown ranks are ignored.
func (g *Group) Deregister(rank int) {
	i, ok := g.indexOf[rank]
	if !ok {
		return
	}
	// Copy on shrink: a retired plan may still alias the old backing array.
	g.ranks = append(append([]int(nil), g.ranks[:i]...), g.ranks[i+1:]...)
	delete(g.indexOf, rank)
	for j, rk := range g.ranks {
		g.indexOf[rk] = j
	}
	if g.cur != nil {
		delete(g.cur.segs, rank)
		if g.cur.departed >= len(g.ranks) {
			g.cur = nil
		}
	}
	if g.curRead != nil {
		delete(g.curRead.segs, rank)
		if g.curRead.departed >= len(g.ranks) {
			g.curRead = nil
		}
	}
	g.entry.Deregister()
	g.exit.Deregister()
}

// numAggregators resolves the file's open-time cb_nodes hint against the
// group size.
func (g *Group) numAggregators() int { return g.numAggregatorsFor(g.f.hints) }

// numAggregatorsFor resolves a cb_nodes hint against the group size.
func (g *Group) numAggregatorsFor(h Hints) int {
	n := h.CBNodes
	if n <= 0 || n > len(g.ranks) {
		n = len(g.ranks)
	}
	return n
}

// buildPlan computes the aggregate extent, file domains, and the
// contributor->aggregator piece matrix. Runs once per round, after the
// entry barrier, so every member's data is registered.
func (g *Group) buildPlan(round *collRound) *collPlan {
	var lo, hi int64
	first := true
	for _, segs := range round.segs {
		for _, s := range segs {
			if first || s.Offset < lo {
				lo = s.Offset
			}
			if first || s.Offset+s.Length > hi {
				hi = s.Offset + s.Length
			}
			first = false
		}
	}
	if first {
		return nil // empty round
	}
	nAgg := g.numAggregatorsFor(round.hints)
	plan := &collPlan{lo: lo, hi: hi, sendPieces: make(map[int]map[int][]pvfs.Segment)}
	// ROMIO divides the aggregate extent evenly among aggregators.
	span := hi - lo
	per := (span + int64(nAgg) - 1) / int64(nAgg)
	plan.domains = make([]int64, nAgg+1)
	for i := 0; i <= nAgg; i++ {
		b := lo + int64(i)*per
		if b > hi {
			b = hi
		}
		plan.domains[i] = b
	}
	plan.aggregators = g.ranks[:nAgg]

	domainOf := func(x int64) int {
		d := int((x - lo) / per)
		if d >= nAgg {
			d = nAgg - 1
		}
		return d
	}
	for contributor, segs := range round.segs {
		for _, s := range segs {
			for off, end := s.Offset, s.End(); off < end; {
				d := domainOf(off)
				take := min(end, plan.domains[d+1]) - off
				agg := plan.aggregators[d]
				m := plan.sendPieces[contributor]
				if m == nil {
					m = make(map[int][]pvfs.Segment)
					plan.sendPieces[contributor] = m
				}
				m[agg] = append(m[agg], s.Sub(off, off+take))
				off += take
			}
		}
	}
	return plan
}

// isAggregator reports whether rank owns a file domain in the plan.
func isAggregator(rank int, plan *collPlan) bool {
	for _, a := range plan.aggregators {
		if a == rank {
			return true
		}
	}
	return false
}

// coalesce sorts segments by offset and merges adjacent runs — inside an
// aggregator's file domain the gathered pieces are usually dense, which is
// precisely why two-phase writes are storage-efficient. With content set
// (a capturing write) a run merges only where its descriptors continue each
// other too (Segment.Continues), so misplaced content is never glued onto
// its neighbour; otherwise offset adjacency alone merges.
func coalesce(segs []pvfs.Segment, content bool) []pvfs.Segment {
	sort.Slice(segs, func(i, j int) bool { return segs[i].Offset < segs[j].Offset })
	out := segs[:0:0]
	for _, s := range segs {
		if n := len(out); n > 0 && out[n-1].End() == s.Offset &&
			(!content || out[n-1].Continues(s)) {
			out[n-1].Length += s.Length
			continue
		}
		out = append(out, s)
	}
	return out
}
