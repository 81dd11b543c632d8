package mpi

import "sort"

// teamTagBase keeps collective tags away from application and two-phase
// exchange tags.
const teamTagBase = 1 << 22

// Team is a fixed group of ranks executing collectives together: broadcast
// (BcastOp) uses a binomial tree (log₂(n) rounds, as MPICH does). Every
// member must call each collective in the same order; a generation counter
// isolates successive operations.
type Team struct {
	w       *World
	ranks   []int
	indexOf map[int]int
	// memberGen counts collectives each member has entered. Members call
	// collectives in the same order, so the k-th operation carries the
	// same tag on every member even when operations overlap in time.
	memberGen []int
}

// NewTeam creates a collective team over the given ranks.
func (w *World) NewTeam(ranks []int) *Team {
	if len(ranks) == 0 {
		protoPanic("NewTeam", -1, "empty team")
	}
	t := &Team{w: w, ranks: append([]int(nil), ranks...), indexOf: map[int]int{}}
	sort.Ints(t.ranks)
	for i, rk := range t.ranks {
		if _, dup := t.indexOf[rk]; dup {
			protoPanic("NewTeam", rk, "duplicate rank in team")
		}
		t.indexOf[rk] = i
	}
	t.memberGen = make([]int, len(t.ranks))
	return t
}

// Size returns the number of team members.
func (t *Team) Size() int { return len(t.ranks) }

// pos returns r's position within the team, panicking on foreign ranks.
func (t *Team) pos(r *Rank) int {
	p, ok := t.indexOf[r.Rank()]
	if !ok {
		protoPanic("Team", r.Rank(), "rank not in team")
	}
	return p
}

// vrank is the virtual rank relative to root (tree algorithms are written
// as if root were position 0).
func (t *Team) vrank(pos, rootPos int) int {
	return (pos - rootPos + len(t.ranks)) % len(t.ranks)
}

// absRank converts a virtual rank back to a world rank.
func (t *Team) absRank(vr, rootPos int) int {
	return t.ranks[(vr+rootPos)%len(t.ranks)]
}

// opTag reserves this member's tag for its next collective operation.
func (t *Team) opTag(r *Rank) int {
	p := t.pos(r)
	tag := teamTagBase + (t.memberGen[p] % (1 << 16))
	t.memberGen[p]++
	return tag
}
