package obs

import (
	"math"
	"sort"
)

// Fixed-memory log-bucketed histogram core (HDR-style). A value is mapped to
// a log-linear bucket: its power-of-two octave (math.Frexp exponent) split
// into histSub equal linear sub-buckets. Bucket width is therefore at most
// 1/histSub of the value itself, so any quantile read from bucket midpoints
// is within a relative error of 1/(2·histSub) — under 2% at histSub = 32 —
// while a registry that absorbs millions of observations stores only the
// octaves its values actually touch (a few dozen for any realistic value
// range), not the observations themselves.
//
// Key layout (ascending int32 key order is ascending value order):
//
//	keyNegInf                      -Inf
//	-2 - posKey(-v)                negative finite values
//	keyZero (-1)                   zero (and NaN, defensively)
//	posKey(v) = (e+histEOff)·histSub + sub   positive finite values
//	keyPosInf                      +Inf
//
// histEOff shifts the Frexp exponent range (about [-1073, 1025] for float64)
// to non-negative, keeping positive-value keys disjoint from the reserved
// ones.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histEOff    = 1100

	keyZero   = int32(-1)
	keyPosInf = int32(1) << 30
	keyNegInf = -(int32(1) << 30)
)

// bucketKey maps one observation to its bucket.
func bucketKey(v float64) int32 {
	switch {
	case v > 0:
		if math.IsInf(v, 1) {
			return keyPosInf
		}
		return posKey(v)
	case v < 0:
		if math.IsInf(v, -1) {
			return keyNegInf
		}
		return -2 - posKey(-v)
	default: // zero or NaN
		return keyZero
	}
}

// posKey keys a positive finite value from its bits. A normal
// v = 1.f·2^(exp-1023) is m·2^e with m = 1.f/2 and e = exp-1022, so the
// sub-bucket (2m-1)·histSub is the top histSubBits bits of the fraction f.
func posKey(v float64) int32 {
	bits := math.Float64bits(v)
	exp := int32(bits >> 52)
	if exp == 0 {
		return frexpKey(v) // subnormal
	}
	return (exp-1022+histEOff)<<histSubBits | int32(bits>>(52-histSubBits))&(histSub-1)
}

// frexpKey is posKey by way of math.Frexp: the definition, and the path for
// subnormal values.
func frexpKey(v float64) int32 {
	m, e := math.Frexp(v) // v = m·2^e, m ∈ [0.5, 1)
	s := int32((2*m - 1) * histSub)
	if s >= histSub {
		s = histSub - 1
	}
	return int32(e+histEOff)<<histSubBits | s
}

// bucketValue returns a bucket's representative value: the midpoint of its
// value range (0 for the zero bucket, ±Inf for the overflow buckets).
func bucketValue(k int32) float64 {
	switch {
	case k == keyZero:
		return 0
	case k == keyPosInf:
		return math.Inf(1)
	case k == keyNegInf:
		return math.Inf(-1)
	case k < 0:
		return -bucketValue(-2 - k)
	}
	e := int(k>>histSubBits) - histEOff
	s := float64(k & (histSub - 1))
	mid := 0.5 + (s+0.5)/(2*histSub)
	return math.Ldexp(mid, e)
}

// buckets holds one histogram's bucket counts without a map, in a form
// that walks in ascending key order with no sort: the zero and ±Inf buckets
// are plain counts, and positive and negative finite values each keep a
// dense span over the octaves they touched (negatives indexed by the key of
// their magnitude). A span therefore covers the octaves used, not the gap
// between zero and the smallest value.
type buckets struct {
	zero, posInf, negInf int64
	pos, neg             span
}

// span is a dense run of bucket counts over whole octaves: n[i] counts key
// lo+i.
type span struct {
	lo int32
	n  []int64
}

// inc counts one observation into bucket k.
func (b *buckets) inc(k int32) {
	switch {
	case k >= 0 && k < keyPosInf:
		b.pos.inc(k)
	case k == keyZero:
		b.zero++
	case k == keyPosInf:
		b.posInf++
	case k == keyNegInf:
		b.negInf++
	default:
		b.neg.inc(-2 - k)
	}
}

func (s *span) inc(k int32) {
	if i := k - s.lo; i >= 0 && int(i) < len(s.n) {
		s.n[i]++
		return
	}
	s.grow(k, k)
	s.n[k-s.lo]++
}

// grow widens the span to cover keys [from, to], in whole octaves. The
// backing array keeps room for twice the span, so a histogram whose values
// reach new octaves one at a time reallocates a logarithmic number of times.
func (s *span) grow(from, to int32) {
	lo := from &^ (histSub - 1)
	hi := to&^(histSub-1) + histSub
	shift := 0
	if len(s.n) > 0 {
		if from >= s.lo && int(to-s.lo) < len(s.n) {
			return
		}
		lo, hi = min(lo, s.lo), max(hi, s.lo+int32(len(s.n)))
		shift = int(s.lo - lo)
	}
	size := int(hi - lo)
	if size <= cap(s.n) {
		// Past len the array is still zero; the counts slide up by shift
		// and the slots they leave are cleared.
		n := s.n[:size]
		copy(n[shift:], s.n)
		clear(n[:shift])
		s.lo, s.n = lo, n
		return
	}
	n := make([]int64, size, 2*size)
	copy(n[shift:], s.n)
	s.lo, s.n = lo, n
}

// addAll adds o's counts into b.
func (b *buckets) addAll(o *buckets) {
	b.zero += o.zero
	b.posInf += o.posInf
	b.negInf += o.negInf
	b.pos.addAll(&o.pos)
	b.neg.addAll(&o.neg)
}

func (s *span) addAll(o *span) {
	if len(o.n) == 0 {
		return
	}
	s.grow(o.lo, o.lo+int32(len(o.n))-1)
	base := o.lo - s.lo
	for i, n := range o.n {
		s.n[base+int32(i)] += n
	}
}

// walk visits the non-empty buckets in ascending key order until f returns
// false.
func (b *buckets) walk(f func(k int32, n int64) bool) {
	if b.negInf > 0 && !f(keyNegInf, b.negInf) {
		return
	}
	for i := len(b.neg.n) - 1; i >= 0; i-- {
		if n := b.neg.n[i]; n > 0 && !f(-2-(b.neg.lo+int32(i)), n) {
			return
		}
	}
	if b.zero > 0 && !f(keyZero, b.zero) {
		return
	}
	for i, n := range b.pos.n {
		if n > 0 && !f(b.pos.lo+int32(i), n) {
			return
		}
	}
	if b.posInf > 0 {
		f(keyPosInf, b.posInf)
	}
}

// toMap copies the non-empty buckets into the map form HistStat carries.
func (b *buckets) toMap() map[int32]int64 {
	size := 0
	b.walk(func(int32, int64) bool {
		size++
		return true
	})
	m := make(map[int32]int64, size)
	b.walk(func(k int32, n int64) bool {
		m[k] = n
		return true
	})
	return m
}

// mapWalk visits a bucket map's entries in ascending key order — the walk
// for HistStats built by Merge, HistOver or by hand.
func mapWalk(m map[int32]int64) func(f func(k int32, n int64) bool) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return func(f func(k int32, n int64) bool) {
		for _, k := range keys {
			if !f(k, m[k]) {
				return
			}
		}
	}
}

// bucketQuantile reads the q-quantile from n observations in buckets
// visited by walk in ascending key order. The rank convention mirrors
// stats.Quantile — the q-quantile sits at index q·(n-1) of the sorted
// observations — except that an observation stands at its bucket's midpoint
// instead of its exact value (the documented ≤1/(2·histSub) relative
// error). Callers clamp results to the exact observed [Min, Max].
func bucketQuantile(walk func(f func(k int32, n int64) bool), n int64, q float64) float64 {
	if n <= 0 {
		return 0
	}
	rank := q * float64(n-1)
	if rank < 0 {
		rank = 0
	}
	// The walk stops at the bucket the rank falls in; a rank past the
	// last bucket reads the last one.
	var (
		cum  int64
		last int32
		seen bool
	)
	walk(func(k int32, c int64) bool {
		cum += c
		last, seen = k, true
		return float64(cum) <= rank
	})
	if !seen {
		return 0
	}
	return bucketValue(last)
}

// quantiles3 reads P50, P95 and P99, clamped to [lo, hi].
func quantiles3(walk func(f func(k int32, n int64) bool), n int64, lo, hi float64) (p50, p95, p99 float64) {
	return clamp(bucketQuantile(walk, n, 0.5), lo, hi),
		clamp(bucketQuantile(walk, n, 0.95), lo, hi),
		clamp(bucketQuantile(walk, n, 0.99), lo, hi)
}

// clamp bounds a bucket-derived quantile by the exact observed range.
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
