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
// A caller that draws many substreams in turn can keep one rand.Rand and
// move it with r.Seed(DeriveSeed(root, dims...)) instead: the draws are
// the same and reseeding allocates nothing.
func SubRand(root int64, dims ...int64) *rand.Rand {
	return rand.New(NewSource(DeriveSeed(root, dims...)))
}

// The constants of math/rand's source (math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	lcgMul   = 48271     // the seeding LCG: x → 48271·x mod 2³¹−1
)

// lcgPow[i] is lcgMul^(21+3i) mod 2³¹−1. math/rand's Seed steps its LCG
// 20 times, then three times per register entry, so entry i starts from
// LCG state seed·lcgPow[i]. init runs Seed's loop from state 1.
var lcgPow [rngLen]uint64

func init() {
	x := uint64(1)
	for i := -20; i < rngLen; i++ {
		x = x * lcgMul % int32max
		if i >= 0 {
			lcgPow[i] = x
			x = x * lcgMul % int32max * lcgMul % int32max
		}
	}
}

// Source is math/rand's additive lagged-Fibonacci source (the one
// rand.NewSource returns), reproduced draw for draw, except that Seed
// fills no register. math/rand's Seed computes all 607 register entries
// (about 1,800 LCG steps); a workload substream then draws about five
// values. Here an entry is computed from the seed the first time a draw
// reads it: one multiplication by a precomputed power of the LCG
// multiplier (lcgPow) stands in for the LCG steps before it. So seeding
// is O(1), and reseeding a Source allocates nothing.
//
// Draw k (from 1) writes entry 334−k and reads entry 607−k, indices mod
// 607. For k ≤ 607 the written entry has not been written before; for
// k ≤ 273 neither has the read one, and for k > 273 it was written by
// draw k−273. After 607 draws every entry has been written (DESIGN.md §6).
// Those first 607 draws are exactly one cycle of the tap index, which
// wraps at draw 1 and next at draw 608. So during them tap is stored
// shifted down by 607: every draw then takes the wrap branch, which does
// the lazy work, and later draws run math/rand's step unchanged.
type Source struct {
	tap, feed int
	x0        uint64 // the normalised seed: LCG state 0
	vec       [rngLen]int64
}

// NewSource returns a Source seeded with seed. rand.New(NewSource(s))
// draws exactly what rand.New(rand.NewSource(s)) draws.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state math/rand's Seed(seed) leaves,
// with the same normalisation of seed.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = -rngLen, rngLen-rngTap // tap 0, shifted for the first pass
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// seeded returns register entry i as math/rand's Seed leaves it.
func (s *Source) seeded(i int) int64 {
	x1 := s.x0 * lcgPow[i] % int32max
	x2 := x1 * lcgMul % int32max
	x3 := x2 * lcgMul % int32max
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		return s.wrap()
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// wrap is a draw whose tap index went negative: one of the first 607
// draws after Seed (tap stored shifted, so it reads below −1), or the
// plain wrap from entry 0 to entry 606 every 607 draws after them.
func (s *Source) wrap() uint64 {
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	tap := s.tap + rngLen
	if s.tap == -1 {
		s.tap = tap
		x := s.vec[s.feed] + s.vec[tap]
		s.vec[s.feed] = x
		return uint64(x)
	}
	if tap < 0 { // draw 1
		tap += rngLen
	}
	t := s.vec[tap]
	if tap >= rngLen-rngTap { // draws 1 to 273: the tap entry is unwritten too
		t = s.seeded(tap)
	}
	x := s.seeded(s.feed) + t
	s.vec[s.feed] = x
	s.tap = tap - rngLen
	if tap == 0 { // draw 607: every entry is now written
		s.tap = 0
	}
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value of the stream.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
