package pvfs

// File content is a stream addressed by offset (DESIGN.md §14): the
// simulator never stores or moves payload bytes, only descriptors saying
// which part of the stream a range of the file holds. Every data-movement
// step — striping, sieve windows, two-phase domains, coalescing, the
// extent store — applies to a descriptor the arithmetic it would apply to a
// byte slice, so a range that ends up at the wrong offset keeps the Src it
// came from and a verifier sees Src != Offset.

// Segment is one contiguous range of file data: a file offset, a length,
// and a content descriptor. Src is the stream offset of the segment's first
// byte, so file byte Offset+i holds stream byte Src+i. A writer that places
// its bytes correctly writes Src == Offset. Src == Zero marks a range of
// zeros: a hole read back from the file, or a write whose payload was lost.
// The cost model reads only Offset and Length.
type Segment struct {
	Offset int64
	Length int64
	Src    int64
}

// Zero is the Src of a range that holds zeros instead of stream content.
const Zero int64 = -1

// End returns the offset one past the segment's last byte.
func (s Segment) End() int64 { return s.Offset + s.Length }

// Placed reports whether s carries stream content at its own offset.
func (s Segment) Placed() bool { return s.Src == s.Offset }

// Sub returns the part [lo, hi) of s, which must lie inside it, with Src
// advanced as far as the offset — the descriptor form of slicing s's bytes.
func (s Segment) Sub(lo, hi int64) Segment {
	src := s.Src
	if src != Zero {
		src += lo - s.Offset
	}
	return Segment{Offset: lo, Length: hi - lo, Src: src}
}

// Continues reports whether t starts where s ends, in the file and in the
// content stream alike (a zero range continues a zero range), so the two
// describe one segment.
func (s Segment) Continues(t Segment) bool {
	if s.End() != t.Offset {
		return false
	}
	if s.Src == Zero || t.Src == Zero {
		return s.Src == t.Src
	}
	return s.Src+s.Length == t.Src
}

// AppendPiece appends p to pieces, merging it into the last piece when it
// continues that piece. Empty pieces are dropped.
func AppendPiece(pieces []Segment, p Segment) []Segment {
	if p.Length <= 0 {
		return pieces
	}
	if n := len(pieces); n > 0 && pieces[n-1].Continues(p) {
		pieces[n-1].Length += p.Length
		return pieces
	}
	return append(pieces, p)
}

// AppendRange appends to dst the parts of pieces (sorted by offset) that
// fall inside [lo, hi), each clipped with Sub and merged by AppendPiece.
func AppendRange(dst, pieces []Segment, lo, hi int64) []Segment {
	for _, p := range pieces {
		a, b := max64(p.Offset, lo), min64(p.End(), hi)
		if a < b {
			dst = AppendPiece(dst, p.Sub(a, b))
		}
	}
	return dst
}

// Overlay returns the image pieces (sorted, tiling a range that contains s)
// with s written over them: a read-modify-write of a buffer, on
// descriptors.
func Overlay(img []Segment, s Segment) []Segment {
	if len(img) == 0 || s.Length <= 0 {
		return img
	}
	lo, hi := img[0].Offset, img[len(img)-1].End()
	out := AppendRange(make([]Segment, 0, len(img)+2), img, lo, s.Offset)
	out = AppendPiece(out, s)
	return AppendRange(out, img, s.End(), hi)
}

// AllPlaced reports whether pieces tile [off, off+n) in order and every
// piece carries the content of its own offset: the check a verifier makes
// on a readback, O(pieces). A hole, a lost write (Zero), a torn write (a
// short tiling) and a misplaced write (Src != Offset) all fail it.
func AllPlaced(pieces []Segment, off, n int64) bool {
	pos := off
	for _, p := range pieces {
		if p.Offset != pos || !p.Placed() {
			return false
		}
		pos += p.Length
	}
	return pos == off+n
}

// Bytes is the export boundary: it builds the bytes the pieces describe, in
// order, filling content pieces with fill(dst, src) and zero pieces with
// zeros. Nothing on the simulation path calls it; tests use it to look at
// a file image as bytes.
func Bytes(pieces []Segment, fill func(dst []byte, src int64)) []byte {
	var n int64
	for _, p := range pieces {
		n += p.Length
	}
	out := make([]byte, n)
	pos := int64(0)
	for _, p := range pieces {
		if p.Src != Zero {
			fill(out[pos:pos+p.Length], p.Src)
		}
		pos += p.Length
	}
	return out
}
