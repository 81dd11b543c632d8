package pvfs

import (
	"reflect"
	"testing"
)

// TestExtentReadZeroFillsHoles pins read()'s hole semantics: bytes never
// written come back as Zero pieces, exactly as a file system returns zeros
// for unwritten regions of a sparse file.
func TestExtentReadZeroFillsHoles(t *testing.T) {
	m := extentMap{capture: true}
	m.write(10, 4, 10)
	m.write(20, 2, 90)

	cases := []struct {
		off, n int64
		want   []Segment
	}{
		{0, 5, []Segment{z(0, 5)}},                                                       // entirely before any extent
		{8, 8, []Segment{z(8, 2), seg(10, 4, 10), z(14, 2)}},                             // hole, extent, hole
		{12, 10, []Segment{seg(12, 2, 12), z(14, 6), seg(20, 2, 90)}},                    // extent tail + gap + next extent
		{14, 6, []Segment{z(14, 6)}},                                                     // pure gap between extents
		{10, 4, []Segment{seg(10, 4, 10)}},                                               // exact extent
		{11, 2, []Segment{seg(11, 2, 11)}},                                               // interior of one extent
		{30, 3, []Segment{z(30, 3)}},                                                     // entirely past the last extent
		{0, 25, []Segment{z(0, 10), seg(10, 4, 10), z(14, 6), seg(20, 2, 90), z(22, 3)}}, // full image
		{5, 0, nil}, // empty range
	}
	for _, c := range cases {
		if got := m.read(c.off, c.n, nil); !reflect.DeepEqual(got, c.want) {
			t.Errorf("read(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

// TestExtentReadAcrossSpliceBoundaries overwrites the middle of an extent —
// forcing the ≤3-entry splice to leave left and right remnants — then reads
// windows spanning every boundary.
func TestExtentReadAcrossSpliceBoundaries(t *testing.T) {
	m := extentMap{capture: true}
	m.write(0, 16, 1000)
	m.write(4, 8, 2000) // splits into [0,4) [4,12) [12,16)
	if len(m.exts) != 3 {
		t.Fatalf("expected 3 extents after mid-overwrite, got %d", len(m.exts))
	}

	whole := []Segment{seg(0, 4, 1000), seg(4, 8, 2000), seg(12, 4, 1012)}
	if got := m.read(0, 16, nil); !reflect.DeepEqual(got, whole) {
		t.Fatalf("full read = %v, want %v", got, whole)
	}
	// Windows straddling each splice boundary, and one covering both.
	for _, c := range []struct{ off, n int64 }{{2, 4}, {10, 4}, {3, 10}, {0, 13}} {
		want := AppendRange(nil, whole, c.off, c.off+c.n)
		if got := m.read(c.off, c.n, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("read(%d, %d) = %v, want %v", c.off, c.n, got, want)
		}
	}

	// Overwrite spanning the splice boundary itself: the read must see the
	// newest content on both sides of it.
	m.write(10, 4, 3000)
	want := []Segment{seg(8, 2, 2004), seg(10, 4, 3000), seg(14, 2, 1014)}
	if got := m.read(8, 8, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-overwrite read = %v, want %v", got, want)
	}
	if m.overlapped == 0 {
		t.Fatal("overlap accounting missed the overwrites")
	}
}

// TestExtentMatchInPlace pins placed(), the in-place verifier: it succeeds
// exactly when every byte of the range is stored with Src == Offset; a
// hole, a Zero extent (lost payload or no capture) or misplaced content
// fails it.
func TestExtentMatchInPlace(t *testing.T) {
	m := extentMap{capture: true}
	m.write(10, 4, 10)
	m.write(14, 2, 14)
	m.write(20, 2, 20)
	m.write(24, 4, Zero)
	m.write(30, 4, 31)
	for _, c := range []struct {
		off, n int64
		want   bool
	}{
		{11, 4, true},   // across two adjacent placed extents
		{10, 6, true},   // both extents exactly
		{5, 0, true},    // empty range
		{8, 4, false},   // starts in a hole
		{12, 10, false}, // hole in the middle
		{21, 3, false},  // runs past the extent into a hole
		{24, 2, false},  // Zero extent
		{30, 2, false},  // misplaced content
		{40, 1, false},  // past the last extent
	} {
		if got := m.placed(c.off, c.n); got != c.want {
			t.Errorf("placed(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
		}
		if got := AllPlaced(m.read(c.off, c.n, nil), c.off, c.n); got != c.want {
			t.Errorf("AllPlaced(read(%d, %d)) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
	plain := extentMap{}
	plain.write(0, 8, 0)
	if plain.placed(0, 8) {
		t.Error("extent stored without capture verified")
	}
}

// TestExtentMisplacedWriteFailsPlaced is the misplacement case a zeroing
// fault cannot stand in for: a write whose content belongs elsewhere
// (Src != Offset) is stored faithfully and fails verification, and the
// remnants an overwrite leaves of it keep the shifted Src — so they still
// fail, while the overwritten middle verifies.
func TestExtentMisplacedWriteFailsPlaced(t *testing.T) {
	m := extentMap{capture: true}
	m.write(100, 30, 164) // content of [164, 194) written at 100
	if m.placed(100, 30) {
		t.Fatal("misplaced write verified")
	}
	m.write(110, 10, 110) // correct overwrite of the middle
	want := []Segment{seg(100, 10, 164), seg(110, 10, 110), seg(120, 10, 184)}
	if got := m.read(100, 30, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
	if !m.placed(110, 10) {
		t.Error("correct overwrite not verified")
	}
	if m.placed(100, 10) || m.placed(120, 10) || m.placed(105, 10) {
		t.Error("misplaced remnant verified")
	}
	// A one-byte slip is as wrong as any other offset.
	m.write(200, 16, 201)
	if m.placed(200, 16) {
		t.Error("write slipped by one byte verified")
	}
}

// TestPlacedNoAllocs pins the in-place verifier, File.Placed, at zero
// allocations.
func TestPlacedNoAllocs(t *testing.T) {
	f := &File{data: extentMap{capture: true}}
	for i := int64(0); i < 256; i++ {
		f.data.write(i*64, 64, i*64)
	}
	if !f.Placed(100, 10000) {
		t.Fatal("placed range failed verification")
	}
	if a := testing.AllocsPerRun(100, func() { f.Placed(100, 10000) }); a != 0 {
		t.Fatalf("Placed allocates %.1f per call", a)
	}
}

// TestSegmentDescriptorArithmetic pins the descriptor operations every
// data-movement step uses.
func TestSegmentDescriptorArithmetic(t *testing.T) {
	if got, want := seg(100, 50, 900).Sub(120, 130), seg(120, 10, 920); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := z(100, 50).Sub(120, 130), z(120, 10); got != want {
		t.Errorf("Zero Sub = %v, want %v", got, want)
	}
	for _, c := range []struct {
		a, b Segment
		want bool
	}{
		{seg(0, 10, 50), seg(10, 5, 60), true},
		{seg(0, 10, 50), seg(10, 5, 61), false}, // file-adjacent, stream gap
		{seg(0, 10, 50), seg(11, 5, 61), false}, // stream-adjacent, file gap
		{z(0, 10), z(10, 5), true},
		{z(0, 10), seg(10, 5, 10), false},
		{seg(0, 10, 0), z(10, 5), false},
	} {
		if got := c.a.Continues(c.b); got != c.want {
			t.Errorf("%v.Continues(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	img := []Segment{z(0, 10), seg(10, 10, 10), z(20, 10)}
	got := Overlay(img, seg(5, 10, 5))
	if want := []Segment{z(0, 5), seg(5, 15, 5), z(20, 10)}; !reflect.DeepEqual(got, want) {
		t.Errorf("Overlay = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(img, []Segment{z(0, 10), seg(10, 10, 10), z(20, 10)}) {
		t.Error("Overlay modified its input")
	}
	if AllPlaced([]Segment{seg(0, 5, 0), seg(6, 4, 6)}, 0, 10) {
		t.Error("AllPlaced accepted a gap")
	}
	if AllPlaced([]Segment{seg(0, 5, 0)}, 0, 10) {
		t.Error("AllPlaced accepted a short tiling")
	}
}

// TestBytesExport pins the export boundary: content pieces are filled from
// the stream at their Src, Zero pieces are zeros.
func TestBytesExport(t *testing.T) {
	fill := func(dst []byte, src int64) {
		for i := range dst {
			dst[i] = byte(src + int64(i))
		}
	}
	got := Bytes([]Segment{seg(0, 3, 7), z(3, 2), seg(5, 2, 1)}, fill)
	if want := []byte{7, 8, 9, 0, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Bytes = %v, want %v", got, want)
	}
}

// TestExtentMapCoalesces pins write's coalescing: pieces whose content
// continues each other end up as one extent, in any write order, including
// when an overwrite leaves a remnant the new extent continues; pieces that
// do not continue each other stay apart.
func TestExtentMapCoalesces(t *testing.T) {
	const pieces, size = 64, 100
	whole := []Segment{seg(0, pieces*size, 5000)}
	for _, c := range []struct {
		name  string
		order func(k int) int
	}{
		{"in order", func(k int) int { return k }},
		{"reversed", func(k int) int { return pieces - 1 - k }},
		{"evens then odds", func(k int) int { return (2*k)%pieces + 2*k/pieces }},
	} {
		m := extentMap{capture: true}
		for k := 0; k < pieces; k++ {
			i := int64(c.order(k))
			m.write(i*size, size, 5000+i*size)
		}
		if len(m.exts) != 1 {
			t.Errorf("%s: %d extents, want 1", c.name, len(m.exts))
		}
		if got := m.read(0, pieces*size, nil); !reflect.DeepEqual(got, whole) {
			t.Errorf("%s: read = %v, want %v", c.name, got, whole)
		}
		if m.coverage() != pieces*size || m.overlapped != 0 {
			t.Errorf("%s: coverage %d overlapped %d, want %d and 0", c.name, m.coverage(), m.overlapped, pieces*size)
		}
	}

	// Overwrites whose content continues the remnants they leave.
	for _, c := range []struct {
		name           string
		first, second  Segment
		want           []Segment
		wantOverlapped int64
	}{
		{"both remnants", seg(0, 100, 1000), seg(40, 30, 1040), []Segment{seg(0, 100, 1000)}, 30},
		{"left remnant", seg(0, 100, 1000), seg(50, 80, 1050), []Segment{seg(0, 130, 1000)}, 50},
		{"right remnant", seg(100, 100, 2000), seg(60, 50, 1960), []Segment{seg(60, 140, 1960)}, 10},
		{"placed over placed", seg(0, 100, 0), seg(30, 40, 30), []Segment{seg(0, 100, 0)}, 40},
		{"zero over zero", z(0, 100), z(90, 20), []Segment{z(0, 110)}, 10},
		{"not continuing", seg(0, 100, 1000), seg(40, 30, 40), []Segment{seg(0, 40, 1000), seg(40, 30, 40), seg(70, 30, 1070)}, 30},
		{"zero next to content", seg(0, 100, 0), z(100, 20), []Segment{seg(0, 100, 0), z(100, 20)}, 0},
	} {
		m := extentMap{capture: true}
		m.write(c.first.Offset, c.first.Length, c.first.Src)
		m.write(c.second.Offset, c.second.Length, c.second.Src)
		if !reflect.DeepEqual(m.exts, c.want) {
			t.Errorf("%s: extents %v, want %v", c.name, m.exts, c.want)
		}
		if m.overlapped != c.wantOverlapped {
			t.Errorf("%s: overlapped %d, want %d", c.name, m.overlapped, c.wantOverlapped)
		}
	}

	// Without capture every extent is Zero, so adjacent writes always merge.
	m := extentMap{}
	for i := int64(pieces - 1); i >= 0; i-- {
		m.write(i*size, size, i*size)
	}
	if len(m.exts) != 1 || !m.covers(pieces*size) {
		t.Errorf("no capture: extents %v, want one covering [0, %d)", m.exts, pieces*size)
	}
}
