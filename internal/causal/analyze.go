package causal

import (
	"fmt"
	"sort"
	"strings"

	"s3asim/internal/des"
)

// Step is one attributed span on the critical path, in walk order (i.e.
// reverse chronological). Steps tile [0, Total) exactly: each nanosecond of
// elapsed virtual time belongs to exactly one step.
type Step struct {
	Proc       string
	Start, End des.Time
	Cat        Category
}

// Attribution is the result of a critical-path walk: the full elapsed
// virtual time decomposed by category, with exact conservation
// (ByCat.Total() == Total, always).
type Attribution struct {
	// Total is the elapsed virtual time that was attributed.
	Total des.Time
	// ByCat sums the critical-path time per category.
	ByCat Breakdown
	// Steps is the path itself, reverse chronological, tiling [0, Total).
	Steps []Step
	// EndProc is the process the walk started from (the one whose recorded
	// timeline reaches furthest).
	EndProc string
	// Truncated is set if the walk hit its step safety bound and dumped the
	// remainder into CatOther. Conservation still holds.
	Truncated bool
}

// CriticalPath walks the recorded happens-before structure backward from
// `end` (normally the run's overall virtual time) and attributes every
// nanosecond of [0, end) to a category.
//
// The walk maintains a cursor (proc, t) and repeatedly asks: what was proc
// doing just before t? A busy interval bills its category and moves t to its
// start. A wait resolved by a remote edge bills its category from the causing
// event's time and jumps the cursor to the causing process. A locally
// decomposed wait bills its segments. Gaps (time no instrumentation covered:
// setup, scheduling slack) bill CatOther. Every step strictly decreases t, so
// the walk terminates and the step spans tile [0, end) exactly — that is the
// conservation invariant the tests pin.
func (r *Recorder) CriticalPath(end des.Time) *Attribution {
	return r.CriticalPathBetween("", 0, end)
}

// CriticalPathBetween is the windowed walk: backward from time hi on proc
// (the per-query/per-request form — start from the process that completed
// the work) down to time lo, attributing every nanosecond of [lo, hi). An
// empty proc starts from the process whose recorded timeline reaches
// furthest, exactly like CriticalPath; CriticalPath(end) is
// CriticalPathBetween("", 0, end). Attribution.Total is hi−lo and Steps tile
// [lo, hi), so Check() holds for windowed walks too.
func (r *Recorder) CriticalPathBetween(proc string, lo, hi des.Time) *Attribution {
	if lo < 0 {
		lo = 0
	}
	att := &Attribution{Total: hi - lo}
	if r == nil || hi <= lo {
		if att.Total < 0 {
			att.Total = 0
		}
		if att.Total > 0 {
			att.ByCat[CatOther] = att.Total
			att.Steps = []Step{{Proc: "", Start: lo, End: hi, Cat: CatOther}}
		}
		return att
	}

	// The process whose recorded timeline reaches furthest; ties break
	// lexicographically for determinism. It is the start when no explicit
	// proc was given (or the given one is unknown).
	var furthest uint32
	var maxEnd des.Time = -1
	for id, tl := range r.timelines {
		if n := len(tl); n > 0 {
			e := tl[n-1].end
			if e > maxEnd || (e == maxEnd && r.names[id] < r.names[furthest]) {
				maxEnd, furthest = e, uint32(id)
			}
		}
	}
	id, known := r.lookup(proc)
	if !known && maxEnd >= 0 {
		id, known = furthest, true
	}
	if known {
		att.EndProc = r.names[id]
	}

	bill := func(proc string, blo, bhi des.Time, cat Category) {
		if blo < lo {
			blo = lo
		}
		if bhi <= blo {
			return
		}
		att.ByCat[cat] += bhi - blo
		// Merge with the previous step when contiguous on the same proc+cat
		// (keeps Steps compact for long uniform stretches).
		if n := len(att.Steps); n > 0 {
			last := &att.Steps[n-1]
			if last.Proc == proc && last.Cat == cat && last.Start == bhi {
				last.Start = blo
				return
			}
		}
		att.Steps = append(att.Steps, Step{Proc: proc, Start: blo, End: bhi, Cat: cat})
	}

	t := hi
	if att.EndProc == "" {
		bill("", lo, hi, CatOther)
		return att
	}
	proc = att.EndProc
	// Anything after the last recorded interval is uninstrumented tail
	// (e.g. stale resilient-protocol timers draining the calendar). With an
	// explicit start proc, the tail is measured against that proc's own
	// timeline — its uninstrumented time is still "other".
	if tl := r.timelines[id]; len(tl) > 0 {
		if e := tl[len(tl)-1].end; e < t {
			bill(proc, e, t, CatOther)
			t = e
		}
	}

	// Safety bound: each recorded interval can be visited at most once per
	// pass through a proc, and every step strictly decreases t; 4× total
	// intervals plus slack is far beyond any legitimate walk.
	maxSteps := 4*r.Intervals() + 64
	for steps := 0; t > lo; steps++ {
		if steps >= maxSteps {
			bill(proc, lo, t, CatOther)
			att.Truncated = true
			break
		}
		tl := r.timelines[id]
		// Find the last interval on this timeline starting strictly before t.
		idx := sort.Search(len(tl), func(i int) bool { return tl[i].start >= t }) - 1
		if idx < 0 {
			bill(proc, lo, t, CatOther)
			break
		}
		iv := &tl[idx]
		if iv.end < t {
			// Gap between instrumented intervals.
			bill(proc, iv.end, t, CatOther)
			t = iv.end
			continue
		}
		switch iv.kind {
		case kindBusy, kindPlain:
			bill(proc, iv.start, t, Category(iv.cat))
			t = iv.start
		case kindEdge:
			if at := des.Time(iv.arg); at < t && len(r.timelines[iv.ref]) > 0 {
				bill(proc, at, t, Category(iv.cat))
				id, proc, t = iv.ref, r.names[iv.ref], at
				continue
			}
			// Degenerate edge (cause at/after t, or unknown proc): treat as
			// a plain wait so progress is still strict.
			bill(proc, iv.start, t, Category(iv.cat))
			t = iv.start
		case kindChain:
			chain := r.chain(iv)
			for k := len(chain) - 1; k >= 0 && t > iv.start; k-- {
				seg := chain[k]
				if seg.At >= t {
					continue
				}
				bill(proc, seg.At, t, seg.Cat)
				t = seg.At
			}
			if t > iv.start {
				bill(proc, iv.start, t, CatOther)
				t = iv.start
			}
		}
	}
	return att
}

// Between sums the path attribution restricted to the window [lo, hi):
// the per-query/per-batch sub-path view. Summing Between over a partition
// of [0, Total) reproduces ByCat exactly.
func (a *Attribution) Between(lo, hi des.Time) Breakdown {
	var b Breakdown
	if a == nil {
		return b
	}
	for _, s := range a.Steps {
		l, h := s.Start, s.End
		if l < lo {
			l = lo
		}
		if h > hi {
			h = hi
		}
		if h > l {
			b[s.Cat] += h - l
		}
	}
	return b
}

// Check verifies the conservation invariant and returns a descriptive error
// if it does not hold (it always should; this guards walker regressions).
func (a *Attribution) Check() error {
	if a == nil {
		return fmt.Errorf("causal: nil attribution")
	}
	if got := a.ByCat.Total(); got != a.Total {
		return fmt.Errorf("causal: conservation violated: categories sum to %s, elapsed %s", got, a.Total)
	}
	var steps des.Time
	for _, s := range a.Steps {
		steps += s.End - s.Start
	}
	if steps != a.Total {
		return fmt.Errorf("causal: steps tile %s, elapsed %s", steps, a.Total)
	}
	return nil
}

// Shares returns each category's fraction of the total (0 when Total is 0).
func (a *Attribution) Shares() [NumCategories]float64 {
	var out [NumCategories]float64
	if a == nil || a.Total == 0 {
		return out
	}
	for i, v := range a.ByCat {
		out[i] = float64(v) / float64(a.Total)
	}
	return out
}

// String renders a one-line summary: total plus non-zero categories.
func (a *Attribution) String() string {
	if a == nil {
		return "<nil>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.3fs =", a.Total.Seconds())
	for c := Category(0); c < NumCategories; c++ {
		if v := a.ByCat[c]; v != 0 {
			fmt.Fprintf(&sb, " %s %.3fs", c, v.Seconds())
		}
	}
	return sb.String()
}
