package stats

import "math/rand"

// SplitMix64 advances and mixes a 64-bit state; it is the standard seeding
// finalizer from Vigna's splitmix64, used here to derive well-separated
// deterministic substreams and, as a counter-based generator, seekable
// payload content (search.Workload.FillContent).
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed mixes a root seed with a sequence of dimension indices (for
// example query number, result number) into an independent substream seed.
// The result depends on every dimension and on their order, and is stable
// across process counts and strategies — the property the paper relies on
// ("the results are always identical since they are pseudo-randomly
// generated").
func DeriveSeed(root int64, dims ...int64) int64 {
	x := SplitMix64(uint64(root))
	for _, d := range dims {
		x = SplitMix64(x ^ SplitMix64(uint64(d)+0xD1B54A32D192ED03))
	}
	return int64(x)
}

// SubRand returns a rand.Rand for the substream identified by (root, dims).
func SubRand(root int64, dims ...int64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(root, dims...)))
}
