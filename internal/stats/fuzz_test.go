package stats

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSource drives Source and math/rand's own source through the same
// mix of rand.Rand methods and fails at the first differing draw. ops
// cycles over the draws; each byte picks a method and sizes its argument.
// One op reseeds both through rand.Rand.Seed partway through.
func FuzzSource(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(700), []byte{0})
	f.Add(int64(-1), int64(math.MaxInt64), uint16(1300), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(math.MinInt64), int64(1<<31), uint16(650), []byte{0, 8, 2, 17, 3, 44})
	f.Add(int64(1<<31-1), int64(-7), uint16(300), []byte{9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(DeriveSeed(2007029, 3, 17), int64(2007029), uint16(2000), []byte{2, 3, 3, 5, 2})
	f.Fuzz(func(t *testing.T, seed, reseed int64, draws uint16, ops []byte) {
		if len(ops) == 0 {
			return
		}
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		n := int(draws) % 3000
		for i := 0; i < n; i++ {
			op := ops[i%len(ops)]
			arg := int64(op)>>4 + 1
			var w, g any
			switch op % 9 {
			case 0:
				w, g = want.Int63(), got.Int63()
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				w, g = want.Float64(), got.Float64()
			case 3:
				w, g = want.Intn(int(arg)), got.Intn(int(arg))
			case 4:
				m := arg << (op & 0x3f)
				if m <= 0 {
					m = math.MaxInt64
				}
				w, g = want.Int63n(m), got.Int63n(m)
			case 5:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 6:
				w, g = want.NormFloat64(), got.NormFloat64()
			case 7:
				ws, gs := make([]int, arg), make([]int, arg)
				for k := range ws {
					ws[k], gs[k] = k, k
				}
				want.Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
				got.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
				for k := range ws {
					if ws[k] != gs[k] {
						t.Fatalf("seed %d, draw %d: Shuffle(%d) differs at %d", seed, i, arg, k)
					}
				}
				continue
			case 8:
				want.Seed(reseed + int64(i))
				got.Seed(reseed + int64(i))
				continue
			}
			if w != g {
				t.Fatalf("seed %d, draw %d, op %d: got %v, want %v", seed, i, op%9, g, w)
			}
		}
	})
}
