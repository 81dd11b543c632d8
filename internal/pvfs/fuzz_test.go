package pvfs

import (
	"testing"
)

// FuzzExtentMap drives the extent map with an arbitrary write program, each
// write carrying an arbitrary Src or Zero, and checks it against a flat
// reference: the stream offset every byte holds, -1 for holes and zeros.
func FuzzExtentMap(f *testing.F) {
	f.Add([]byte{10, 5, 1, 8, 9, 2})
	f.Add([]byte{0, 255, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 12
		ref := make([]int64, size)
		for i := range ref {
			ref[i] = -1
		}
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
			// Every fourth fill byte is a lost write; the rest pick a Src
			// that is sometimes the write's own offset and sometimes not.
			src := Zero
			if fill := int64(program[i+2]); fill%4 != 0 {
				src = off + (fill%8-4)*8
				if src < 0 {
					src = off
				}
			}
			m.write(off, n, src)
			for j := off; j < off+n; j++ {
				ref[j] = -1
				if src != Zero {
					ref[j] = src + j - off
				}
				covered[j] = true
			}
		}
		// Coalescing: no two adjacent stored extents continue each other.
		for k := 1; k < len(m.exts); k++ {
			if m.exts[k-1].Continues(m.exts[k]) {
				t.Fatalf("extents %d %v and %d %v continue each other but were not merged", k-1, m.exts[k-1], k, m.exts[k])
			}
		}
		check := func(off, n int64) {
			pieces := m.read(off, n, nil)
			pos := off
			for k, p := range pieces {
				if p.Offset != pos || p.Length <= 0 {
					t.Fatalf("read(%d, %d): piece %d = %v does not continue the tiling at %d", off, n, k, p, pos)
				}
				if k > 0 && pieces[k-1].Continues(p) {
					t.Fatalf("read(%d, %d): pieces %d and %d were not merged", off, n, k-1, k)
				}
				for j := int64(0); j < p.Length; j++ {
					want, got := ref[p.Offset+j], int64(-1)
					if p.Src != Zero {
						got = p.Src + j
					}
					if got != want {
						t.Fatalf("read(%d, %d): byte %d holds %d, want %d", off, n, p.Offset+j, got, want)
					}
				}
				pos = p.End()
			}
			if pos != off+n {
				t.Fatalf("read(%d, %d) tiles only up to %d", off, n, pos)
			}
			// The in-place verifier succeeds exactly when every byte
			// holds the content of its own offset.
			full := true
			for j := off; j < off+n; j++ {
				full = full && ref[j] == j
			}
			if got := m.placed(off, n); got != full {
				t.Fatalf("placed(%d, %d) = %v, want %v", off, n, got, full)
			}
			if got := AllPlaced(pieces, off, n); got != full {
				t.Fatalf("AllPlaced(read(%d, %d)) = %v, want %v", off, n, got, full)
			}
		}
		check(0, size)
		// Sub-range reads derived from the same program bytes: arbitrary
		// windows, including ones straddling splice boundaries and holes.
		for i := 0; i+1 < len(program); i += 2 {
			off := int64(program[i]) * 16
			n := int64(program[i+1]) + 1
			if off+n > size {
				n = size - off
			}
			if n > 0 {
				check(off, n)
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
