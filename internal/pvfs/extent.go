// Package pvfs implements a simulated PVFS2-style parallel file system:
// a configurable set of I/O servers plus a metadata server, round-robin
// striping, native support for noncontiguous list I/O, per-server FCFS
// request queues with an explicit cost model, and optional capture of file
// content as descriptors (Segment.Src: which part of the content stream a
// range holds, never the bytes themselves) so readback can verify that
// every I/O strategy leaves every byte where it belongs.
//
// As on real PVFS2 (paper §3.1), there is no locking and no atomicity for
// overlapping writes — writers are expected not to overlap, and the file
// tracks overlapping bytes so invariant tests can assert none occurred.
package pvfs

import "sort"

// extentMap maintains sorted, non-overlapping extents (stored as Segments:
// each extent's Src is the stream offset of its first byte, or Zero) with
// overwrite semantics, and counts bytes that were ever written more than
// once. No two adjacent extents continue each other (Segment.Continues):
// write coalesces them, so the map holds as few extents as its content
// allows.
type extentMap struct {
	exts        []Segment
	overlapped  int64 // total bytes written over already-written bytes
	capture     bool  // false: every extent is stored as Zero
	writes      int64
	bytesStored int64 // current coverage
}

// write records [off, off+n) holding stream content from src (or Zero),
// replacing any overlap.
//
// The extents intersecting the write form one contiguous run exts[i:j], and
// because stored extents are sorted and non-overlapping, at most the first
// can leave a remnant on the left and at most the last a remnant on the
// right. The run is therefore replaced by at most three already-ordered
// entries, spliced in place — the slice is never reallocated (beyond
// amortized append growth), which keeps a W-write file at O(W) total
// allocation. A right remnant keeps the content it held: its Src advances
// with its offset (Segment.Sub).
//
// Before the splice, the new extent absorbs whatever it continues or is
// continued by on either side: the left remnant or, when there is none, the
// neighbour ending at off; the right remnant or the neighbour starting at
// end. These are the only boundaries the write creates, so the map keeps
// its no-continuing-neighbours invariant. Merging changes no answer: read
// already merges continuing pieces, an extent that continues another is
// Placed exactly when that one is, and coverage and overlap are counted
// before it.
func (m *extentMap) write(off, n, src int64) {
	if n <= 0 {
		return
	}
	if !m.capture {
		src = Zero
	}
	m.writes++
	end := off + n

	// Find the run of extents intersecting [off, end).
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].End() > off })
	j := i
	for j < len(m.exts) && m.exts[j].Offset < end {
		e := m.exts[j]
		ovLo, ovHi := max64(e.Offset, off), min64(e.End(), end)
		if ovHi > ovLo {
			m.overlapped += ovHi - ovLo
			m.bytesStored -= ovHi - ovLo
		}
		j++
	}
	m.bytesStored += n

	newExt := Segment{Offset: off, Length: n, Src: src}
	var left, right Segment
	haveLeft, haveRight := false, false
	if j > i {
		if e := m.exts[i]; e.Offset < off {
			left, haveLeft = e.Sub(e.Offset, off), true
		}
		if e := m.exts[j-1]; e.End() > end {
			right, haveRight = e.Sub(end, e.End()), true
		}
	}

	if haveLeft && left.Continues(newExt) {
		newExt, haveLeft = join(left, newExt), false
	} else if !haveLeft && i > 0 && m.exts[i-1].Continues(newExt) {
		i--
		newExt = join(m.exts[i], newExt)
	}
	if haveRight && newExt.Continues(right) {
		newExt, haveRight = join(newExt, right), false
	} else if !haveRight && j < len(m.exts) && newExt.Continues(m.exts[j]) {
		newExt = join(newExt, m.exts[j])
		j++
	}

	repl := 1
	if haveLeft {
		repl++
	}
	if haveRight {
		repl++
	}

	// Splice: resize the replaced run exts[i:j] to repl slots.
	oldLen := len(m.exts)
	switch delta := repl - (j - i); {
	case delta > 0:
		var pad [2]Segment
		m.exts = append(m.exts, pad[:delta]...)
		copy(m.exts[j+delta:], m.exts[j:oldLen])
	case delta < 0:
		copy(m.exts[j+delta:], m.exts[j:])
		m.exts = m.exts[:oldLen+delta]
	}
	if haveLeft {
		m.exts[i] = left
		i++
	}
	m.exts[i] = newExt
	if haveRight {
		m.exts[i+1] = right
	}
}

// join returns the one extent that a and b describe when b continues a.
func join(a, b Segment) Segment {
	return Segment{Offset: a.Offset, Length: a.Length + b.Length, Src: a.Src}
}

// coverage returns the number of distinct bytes ever written.
func (m *extentMap) coverage() int64 { return m.bytesStored }

// covers reports whether [0, size) is fully covered.
func (m *extentMap) covers(size int64) bool {
	var pos int64
	for _, e := range m.exts {
		if e.Offset > pos {
			return false
		}
		if e.End() > pos {
			pos = e.End()
		}
		if pos >= size {
			return true
		}
	}
	return pos >= size
}

// read appends to dst the descriptor pieces tiling [off, off+n) in file
// order: stored extents clipped to the range, gaps as Zero pieces, and
// pieces that continue each other merged (AppendPiece). No bytes are
// copied.
func (m *extentMap) read(off, n int64, dst []Segment) []Segment {
	pos, end := off, off+n
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].End() > off })
	for ; pos < end && i < len(m.exts) && m.exts[i].Offset < end; i++ {
		e := m.exts[i]
		if e.Offset > pos {
			dst = AppendPiece(dst, Segment{Offset: pos, Length: e.Offset - pos, Src: Zero})
			pos = e.Offset
		}
		hi := min64(e.End(), end)
		dst = AppendPiece(dst, e.Sub(pos, hi))
		pos = hi
	}
	return AppendPiece(dst, Segment{Offset: pos, Length: end - pos, Src: Zero})
}

// placed reports whether every byte of [off, off+n) is stored and holds the
// stream content of its own offset — AllPlaced over read's pieces, walked
// in place: O(extents), no allocation.
func (m *extentMap) placed(off, n int64) bool {
	pos, end := off, off+n
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].End() > off })
	for ; pos < end; i++ {
		if i == len(m.exts) {
			return false
		}
		e := m.exts[i]
		if e.Offset > pos || !e.Placed() {
			return false
		}
		pos = e.End()
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
