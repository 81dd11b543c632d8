package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the seed normalisation's cases: zero (replaced by
// math/rand's fixed seed), negatives, multiples of 2³¹−1, the int64
// extremes, values at and past 2³¹, and a derived substream seed.
var sourceSeeds = []int64{
	0, 1, -1, 42, -42, int32max, -int32max, 2 * int32max, 1 << 31, 1<<31 + 1,
	1 << 40, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	DeriveSeed(2007029, 3, 17),
}

// sameStream draws n values of each method from both generators in turn
// and fails at the first difference.
func sameStream(t *testing.T, seed int64, want, got *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
		}
		if w, g := want.Intn(1000+i), got.Intn(1000+i); w != g {
			t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Int63n(1<<40+int64(i)), got.Int63n(1<<40+int64(i)); w != g {
			t.Fatalf("seed %d: Int63n #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
			t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, i, g, w)
		}
		if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
			t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins Source to math/rand draw for draw: 1,000
// draws of each method per seed run far past the 273-draw wrap and the
// 607-draw point where every entry has been written, and a reseed
// through rand.Rand.Seed partway through must land on the same stream.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		sameStream(t, seed, want, got, 1000)
		reseed := seed ^ 0x5EED
		want.Seed(reseed)
		got.Seed(reseed)
		sameStream(t, reseed, want, got, 1000)
	}
}

// TestSourceFirstDrawsEachSeed checks the first 700 raw draws, which
// touch every register entry before it is first written, over many seeds.
func TestSourceFirstDrawsEachSeed(t *testing.T) {
	got := NewSource(0)
	for i := int64(0); i < 200; i++ {
		seed := DeriveSeed(7, i)
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for k := 0; k < 700; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, k+1, g, w)
			}
		}
	}
}

// Reseeding a Source through its rand.Rand must not allocate: that is
// what lets a generator draw one substream per result for free.
func TestSourceReseedAllocs(t *testing.T) {
	r := rand.New(NewSource(1))
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		r.Seed(DeriveSeed(2007029, 3, 17))
		sink += r.Int63n(1000) + int64(r.Intn(128))
	})
	if allocs != 0 {
		t.Fatalf("reseed + draws: %v allocs, want 0", allocs)
	}
	_ = sink
}
