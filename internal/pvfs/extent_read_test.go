package pvfs

import (
	"bytes"
	"testing"
)

// TestExtentReadZeroFillsHoles pins read()'s hole semantics: bytes never
// written come back as zeros, exactly as a file system returns zeros for
// unwritten regions of a sparse file.
func TestExtentReadZeroFillsHoles(t *testing.T) {
	m := extentMap{capture: true}
	m.write(10, 4, []byte{1, 2, 3, 4})
	m.write(20, 2, []byte{9, 9})

	cases := []struct {
		off, n int64
		want   []byte
	}{
		{0, 5, []byte{0, 0, 0, 0, 0}},                  // entirely before any extent
		{8, 8, []byte{0, 0, 1, 2, 3, 4, 0, 0}},         // hole, extent, hole
		{12, 10, []byte{3, 4, 0, 0, 0, 0, 0, 0, 9, 9}}, // extent tail + gap + next extent
		{14, 6, []byte{0, 0, 0, 0, 0, 0}},              // pure gap between extents
		{10, 4, []byte{1, 2, 3, 4}},                    // exact extent
		{11, 2, []byte{2, 3}},                          // interior of one extent
		{30, 3, []byte{0, 0, 0}},                       // entirely past the last extent
		{0, 25, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, // full image
			0, 0, 0, 0, 0, 0, 9, 9, 0, 0, 0}},
	}
	for _, c := range cases {
		if got := m.read(c.off, c.n); !bytes.Equal(got, c.want) {
			t.Errorf("read(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

// TestExtentReadAcrossSpliceBoundaries overwrites the middle of an extent —
// forcing the ≤3-entry splice to leave left and right remnants sharing the
// original backing array — then reads windows spanning every boundary.
func TestExtentReadAcrossSpliceBoundaries(t *testing.T) {
	m := extentMap{capture: true}
	m.write(0, 16, bytes.Repeat([]byte{0xAA}, 16))
	m.write(4, 8, bytes.Repeat([]byte{0xBB}, 8)) // splits into [0,4) [4,12) [12,16)
	if len(m.exts) != 3 {
		t.Fatalf("expected 3 extents after mid-overwrite, got %d", len(m.exts))
	}

	want := append(append(bytes.Repeat([]byte{0xAA}, 4), bytes.Repeat([]byte{0xBB}, 8)...),
		bytes.Repeat([]byte{0xAA}, 4)...)
	if got := m.read(0, 16); !bytes.Equal(got, want) {
		t.Fatalf("full read = %v, want %v", got, want)
	}
	// Windows straddling each splice boundary, and one covering both.
	for _, c := range []struct{ off, n int64 }{{2, 4}, {10, 4}, {3, 10}, {0, 13}} {
		if got := m.read(c.off, c.n); !bytes.Equal(got, want[c.off:c.off+c.n]) {
			t.Errorf("read(%d, %d) = %v, want %v", c.off, c.n, got, want[c.off:c.off+c.n])
		}
	}

	// Overwrite spanning the splice boundary itself: the read must see the
	// newest data even where remnant extents alias the old backing array.
	m.write(10, 4, bytes.Repeat([]byte{0xCC}, 4))
	copy(want[10:14], bytes.Repeat([]byte{0xCC}, 4))
	if got := m.read(8, 8); !bytes.Equal(got, want[8:16]) {
		t.Fatalf("post-overwrite read = %v, want %v", got, want[8:16])
	}
	if m.overlapped == 0 {
		t.Fatal("overlap accounting missed the overwrites")
	}
}

// TestExtentMatchInPlace pins match(): pieces arrive in file order, split
// at extent boundaries, aliasing the store; a hole, an uncaptured extent or
// a rejecting comparator fails the match.
func TestExtentMatchInPlace(t *testing.T) {
	m := extentMap{capture: true}
	m.write(10, 4, []byte{1, 2, 3, 4})
	m.write(14, 2, []byte{5, 6})
	m.write(20, 2, []byte{9, 9})
	img := m.read(0, 22)

	type piece struct {
		off int64
		b   []byte
	}
	var seen []piece
	eq := func(b []byte, off int64) bool {
		seen = append(seen, piece{off, append([]byte(nil), b...)})
		return bytes.Equal(b, img[off:off+int64(len(b))])
	}
	if !m.match(11, 4, eq) {
		t.Fatal("match over two adjacent extents failed")
	}
	if len(seen) != 2 || seen[0].off != 11 || !bytes.Equal(seen[0].b, []byte{2, 3, 4}) ||
		seen[1].off != 14 || !bytes.Equal(seen[1].b, []byte{5}) {
		t.Fatalf("pieces = %v, want [11:{2 3 4}] [14:{5}]", seen)
	}
	for _, c := range []struct{ off, n int64 }{{8, 4}, {12, 10}, {16, 2}, {21, 3}, {30, 1}} {
		if m.match(c.off, c.n, eq) {
			t.Errorf("match(%d, %d) spans a hole but succeeded", c.off, c.n)
		}
	}
	if m.match(10, 4, func([]byte, int64) bool { return false }) {
		t.Error("rejecting comparator matched")
	}
	if !m.match(5, 0, eq) {
		t.Error("empty range did not match")
	}
	plain := extentMap{}
	plain.write(0, 8, nil)
	if plain.match(0, 8, func([]byte, int64) bool { return true }) {
		t.Error("extent without stored bytes matched")
	}
}
