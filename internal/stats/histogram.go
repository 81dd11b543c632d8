// Package stats provides the statistical substrate for S3aSim: box
// histograms (the paper's mechanism for describing query and database
// sequence size distributions), deterministic seeded random streams,
// online summary statistics, and plain-text/CSV table rendering.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Bin is one box of a box histogram: values are drawn uniformly from
// [Min, Max] with relative probability Weight.
type Bin struct {
	Min, Max int64
	Weight   float64
}

// BoxHistogram is a piecewise-uniform distribution over int64 values, the
// "box histogram" input S3aSim exposes for query sizes and database
// sequence sizes.
type BoxHistogram struct {
	bins []Bin
	cum  []float64 // cumulative weights, cum[len-1] == total
}

// NewBoxHistogram validates bins and builds a sampler. Bins need not be
// sorted or contiguous; weights are relative and need not sum to 1, but
// each must be finite and positive, and a bin may span at most
// math.MaxInt64 values (Sample draws its offset with rand.Int63n).
func NewBoxHistogram(bins []Bin) (*BoxHistogram, error) {
	if len(bins) == 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	h := &BoxHistogram{bins: append([]Bin(nil), bins...), cum: make([]float64, len(bins))}
	total := 0.0
	for i, b := range h.bins {
		if b.Min > b.Max {
			return nil, fmt.Errorf("stats: bin %d has min %d > max %d", i, b.Min, b.Max)
		}
		if uint64(b.Max)-uint64(b.Min) >= math.MaxInt64 {
			return nil, fmt.Errorf("stats: bin %d span [%d, %d] holds more than %d values", i, b.Min, b.Max, int64(math.MaxInt64))
		}
		if math.IsNaN(b.Weight) || math.IsInf(b.Weight, 0) {
			return nil, fmt.Errorf("stats: bin %d has non-finite weight %g", i, b.Weight)
		}
		if b.Weight <= 0 {
			return nil, fmt.Errorf("stats: bin %d has non-positive weight %g", i, b.Weight)
		}
		total += b.Weight
		h.cum[i] = total
	}
	if math.IsInf(total, 0) {
		return nil, errors.New("stats: histogram weights sum past the float64 range")
	}
	return h, nil
}

// MustBoxHistogram is NewBoxHistogram that panics on invalid input; for
// package-level histogram constants.
func MustBoxHistogram(bins []Bin) *BoxHistogram {
	h, err := NewBoxHistogram(bins)
	if err != nil {
		panic(err)
	}
	return h
}

// Sample draws one value: a bin chosen by weight, then uniform within it.
func (h *BoxHistogram) Sample(rng *rand.Rand) int64 {
	total := h.cum[len(h.cum)-1]
	x := rng.Float64() * total
	i := sort.SearchFloat64s(h.cum, x)
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	b := h.bins[i]
	if b.Min == b.Max {
		return b.Min
	}
	return b.Min + rng.Int63n(b.Max-b.Min+1)
}

// Mean returns the analytic expected value.
func (h *BoxHistogram) Mean() float64 {
	total := h.cum[len(h.cum)-1]
	m := 0.0
	for _, b := range h.bins {
		m += b.Weight / total * (float64(b.Min) + float64(b.Max)) / 2
	}
	return m
}

// Min returns the smallest producible value.
func (h *BoxHistogram) Min() int64 {
	m := h.bins[0].Min
	for _, b := range h.bins[1:] {
		if b.Min < m {
			m = b.Min
		}
	}
	return m
}

// Max returns the largest producible value.
func (h *BoxHistogram) Max() int64 {
	m := h.bins[0].Max
	for _, b := range h.bins[1:] {
		if b.Max > m {
			m = b.Max
		}
	}
	return m
}

// Bins returns a copy of the bin set.
func (h *BoxHistogram) Bins() []Bin { return append([]Bin(nil), h.bins...) }

// NTLike returns a histogram approximating the NCBI NT database statistics
// the paper reports in §3.3: minimum sequence length 6 bytes, maximum
// slightly over 43 MB, mean ≈ 4401 bytes. The mass sits in short sequences
// with a very thin multi-megabyte tail.
func NTLike() *BoxHistogram {
	return MustBoxHistogram([]Bin{
		{Min: 6, Max: 400, Weight: 0.26},
		{Min: 401, Max: 1000, Weight: 0.35},
		{Min: 1001, Max: 4000, Weight: 0.25},
		{Min: 4001, Max: 16000, Weight: 0.1195},
		{Min: 16001, Max: 120000, Weight: 0.02},
		{Min: 120001, Max: 2_000_000, Weight: 0.0005},
		{Min: 2_000_001, Max: 45_090_000, Weight: 0.00002},
	})
}

// Uniform returns a single-bin histogram over [min, max].
func Uniform(min, max int64) *BoxHistogram {
	return MustBoxHistogram([]Bin{{Min: min, Max: max, Weight: 1}})
}

// Constant returns a histogram that always produces v.
func Constant(v int64) *BoxHistogram { return Uniform(v, v) }
