package pvfs

import (
	"bytes"
	"testing"
)

// FuzzExtentMap drives the extent map with an arbitrary write program and
// checks it against a flat reference buffer.
func FuzzExtentMap(f *testing.F) {
	f.Add([]byte{10, 5, 1, 8, 9, 2})
	f.Add([]byte{0, 255, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 12
		ref := make([]byte, size)
		covered := make([]bool, size)
		m := extentMap{capture: true}
		for i := 0; i+2 < len(program); i += 3 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]%64) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			fill := program[i+2]
			data := bytes.Repeat([]byte{fill}, int(n))
			m.write(off, n, data)
			copy(ref[off:off+n], data)
			for j := off; j < off+n; j++ {
				covered[j] = true
			}
		}
		if got := m.read(0, size); !bytes.Equal(got, ref) {
			t.Fatal("extent map diverged from reference buffer")
		}
		// Sub-range reads derived from the same program bytes: arbitrary
		// windows (including ones straddling splice boundaries and holes)
		// must match the reference slice byte for byte.
		for i := 0; i+1 < len(program); i += 2 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			if got := m.read(off, n); !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("read(%d, %d) diverged from reference", off, n)
			}
			// In-place match over the same window: it succeeds exactly
			// when the window has no hole, visiting contiguous pieces.
			pos := off
			got := m.match(off, n, func(b []byte, o int64) bool {
				ok := o == pos && bytes.Equal(b, ref[o:o+int64(len(b))])
				pos = o + int64(len(b))
				return ok
			})
			full := true
			for j := off; j < off+n; j++ {
				full = full && covered[j]
			}
			if got != full {
				t.Fatalf("match(%d, %d) = %v, want %v", off, n, got, full)
			}
		}
		var want int64
		for _, c := range covered {
			if c {
				want++
			}
		}
		if m.coverage() != want {
			t.Fatalf("coverage %d, want %d", m.coverage(), want)
		}
	})
}
