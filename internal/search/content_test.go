package search

import (
	"bytes"
	"testing"

	"s3asim/internal/stats"
)

// refContent is the documented content formula evaluated byte by byte:
// byte x of the file is byte x&7 of SplitMix64(key ^ (x>>3)·contentMul).
func refContent(w *Workload, off, n int64) []byte {
	key := uint64(stats.DeriveSeed(w.Spec.Seed ^ 0x5EED))
	out := make([]byte, n)
	for i := range out {
		x := uint64(off) + uint64(i)
		out[i] = byte(stats.SplitMix64(key^(x>>3)*contentMul) >> (8 * (x & 7)))
	}
	return out
}

func fill(w *Workload, off, n int64) []byte {
	b := make([]byte, n)
	w.FillContent(b, off)
	return b
}

func TestContentMatchesFormula(t *testing.T) {
	w := Generate(smallSpec())
	for _, off := range []int64{0, 1, 7, 8, 13, 4096 + 3} {
		for _, n := range []int64{0, 1, 5, 8, 9, 23, 64, 100} {
			if got, want := fill(w, off, n), refContent(w, off, n); !bytes.Equal(got, want) {
				t.Fatalf("FillContent(off=%d, n=%d) differs from the byte-wise formula", off, n)
			}
		}
	}
}

// TestContentDeterministic replaces the per-result determinism test: the
// bytes of a result depend only on the workload seed and its file offset.
func TestContentDeterministic(t *testing.T) {
	a, b := Generate(smallSpec()), Generate(smallSpec())
	r := a.Queries[1].Results[2]
	d := fill(a, r.Offset, r.Size)
	if !bytes.Equal(d, fill(b, r.Offset, r.Size)) || !bytes.Equal(d, fill(a, r.Offset, r.Size)) {
		t.Fatal("FillContent not deterministic across equal specs")
	}
}

// TestContentDistinctAcrossResultsAndSeeds: distinct results, and the same
// offsets under a distinct seed, carry different bytes.
func TestContentDistinctAcrossResultsAndSeeds(t *testing.T) {
	spec := smallSpec()
	w := Generate(spec)
	spec.Seed++
	other := Generate(spec)
	r0, r1 := w.Queries[0].Results[0], w.Queries[0].Results[1]
	const n = 16 // MinResultSize
	a, b := fill(w, r0.Offset, n), fill(w, r1.Offset, n)
	if bytes.Equal(a, b) {
		t.Fatal("distinct results produced identical bytes")
	}
	if bytes.Equal(a, fill(other, r0.Offset, n)) {
		t.Fatal("distinct seeds produced identical bytes")
	}
}

func TestContentSeekable(t *testing.T) {
	w := Generate(smallSpec())
	const total = 256
	whole := fill(w, 0, total)
	for off := int64(0); off < 24; off++ {
		for n := int64(0); off+n <= total; n += 7 {
			if !bytes.Equal(fill(w, off, n), whole[off:off+n]) {
				t.Fatalf("fill [%d,+%d) != slice of the whole fill", off, n)
			}
		}
	}
	for split := 0; split <= total; split++ {
		b := make([]byte, total)
		w.FillContent(b[:split], 0)
		w.FillContent(b[split:], int64(split))
		if !bytes.Equal(b, whole) {
			t.Fatalf("fills split at %d do not concatenate to the whole", split)
		}
	}
}

func TestContentNoAllocs(t *testing.T) {
	w := Generate(smallSpec())
	b := make([]byte, 1021)
	if a := testing.AllocsPerRun(100, func() { w.FillContent(b, 3) }); a != 0 {
		t.Fatalf("FillContent allocates %.1f per call", a)
	}
}

// FuzzContent checks that a fill of [off, off+n) split anywhere matches the
// byte-wise formula. (The last argument is unused; it keeps the seed
// corpus's shape.)
func FuzzContent(f *testing.F) {
	f.Add(uint32(0), uint16(64), uint16(0), uint16(0))
	f.Add(uint32(3), uint16(13), uint16(5), uint16(12))
	f.Add(uint32(7), uint16(1), uint16(1), uint16(0))
	f.Add(uint32(1<<20+5), uint16(300), uint16(150), uint16(8))
	f.Add(uint32(8), uint16(0), uint16(0), uint16(0))
	w := Generate(smallSpec())
	f.Fuzz(func(t *testing.T, off uint32, n, split, _ uint16) {
		o, size := int64(off), int64(n%4096)
		s := int64(split) % (size + 1)
		b := make([]byte, size)
		w.FillContent(b[:s], o)
		w.FillContent(b[s:], o+s)
		if !bytes.Equal(b, refContent(w, o, size)) {
			t.Fatalf("split fill [%d,+%d) at %d differs from the formula", o, size, s)
		}
	})
}
