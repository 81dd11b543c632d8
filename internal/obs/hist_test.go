package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"s3asim/internal/stats"
)

// relErr is the documented bucket-midpoint quantile error bound: half of one
// sub-bucket's relative width.
const relErr = 1.0 / (2 * histSub)

func TestBucketKeyOrderAndValue(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e9, -3.7, -1e-6, 0, 1e-9, 0.4999,
		0.5, 0.9, 1, 1.03125, 2, 1e6, 1e300, math.Inf(1)}
	prevKey := int32(math.MinInt32)
	for _, v := range vals {
		k := bucketKey(v)
		if k < prevKey {
			t.Fatalf("bucket keys not monotone: key(%g) = %d < previous %d", v, k, prevKey)
		}
		prevKey = k
		rep := bucketValue(k)
		switch {
		case v == 0:
			if rep != 0 {
				t.Fatalf("zero bucket representative = %g", rep)
			}
		case math.IsInf(v, 0):
			if rep != v {
				t.Fatalf("inf bucket representative = %g for %g", rep, v)
			}
		default:
			if math.Abs(rep-v) > relErr*math.Abs(v)+1e-300 {
				t.Fatalf("representative %g for %g exceeds error bound", rep, v)
			}
		}
	}
	if bucketKey(math.NaN()) != keyZero {
		t.Fatal("NaN should land in the defensive zero bucket")
	}
}

// TestPosKeyMatchesFrexp checks the bit-twiddled bucket key against its
// math.Frexp definition across normal, subnormal and extreme values.
func TestPosKeyMatchesFrexp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []float64{math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308,
		math.MaxFloat64, 0.5, 1, 1.5, 2, 3, 0.999999999, 1e-9, 1e300}
	for i := 0; i < 100000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()&^(1<<63)))
	}
	for _, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) || v == 0 {
			continue
		}
		if got, want := posKey(v), frexpKey(v); got != want {
			t.Fatalf("posKey(%g) = %d, frexp form gives %d", v, got, want)
		}
	}
}

// TestBucketsMatchMap feeds values of every kind into the dense bucket
// form in an order that grows its spans both ways and checks it against a
// plain map: same counts, walked in ascending key order, and addAll sums.
func TestBucketsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var a, b buckets
	want := map[int32]int64{}
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64()*60 - 30)
		switch i % 7 {
		case 0:
			v = -v
		case 1:
			v = 0
		case 2:
			v = math.Inf(1 - 2*(i/7%2))
		}
		if i > 10000 {
			v *= 1e-3 // new low octaves after the spans settled
		}
		k := bucketKey(v)
		want[k]++
		if i%2 == 0 {
			a.inc(k)
		} else {
			b.inc(k)
		}
	}
	a.addAll(&b)
	if got := a.toMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dense buckets hold %d keys, map %d", len(got), len(want))
	}
	prev := int32(math.MinInt32)
	a.walk(func(k int32, _ int64) bool {
		if k <= prev {
			t.Fatalf("walk out of order: %d after %d", k, prev)
		}
		prev = k
		return true
	})
}

// TestHistQuantileAccuracy checks the documented error bound on a large
// log-uniform stream: every bucket-derived quantile is within relErr
// (relative) of the exact sample quantile.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	samples := make([]float64, 100000)
	for i := range samples {
		v := math.Exp(rng.Float64()*18 - 9) // log-uniform over ~[1.2e-4, 8.1e3]
		samples[i] = v
		r.Observe("lat", v)
	}
	h := r.Snapshot().Hists["lat"]
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := stats.Quantile(samples, q)
		got := h.Quantile(q)
		// Adjacent order statistics of a dense stream sit inside one bucket,
		// so the only error left is the midpoint-vs-value offset.
		if math.Abs(got-exact) > 2*relErr*exact {
			t.Fatalf("q=%g: bucket quantile %g vs exact %g (rel err %g > bound %g)",
				q, got, exact, math.Abs(got-exact)/exact, 2*relErr)
		}
	}
	if h.P50 != h.Quantile(0.5) || h.P95 != h.Quantile(0.95) || h.P99 != h.Quantile(0.99) {
		t.Fatal("precomputed quantiles disagree with Quantile()")
	}
}

// TestHistMergeBucketsMatchesCombinedStream pins the merged-quantile error
// bound: merging two bucketed snapshots re-reads quantiles from the summed
// buckets, which must agree with a single histogram fed both streams.
func TestHistMergeBucketsMatchesCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b, both := NewRegistry(), NewRegistry(), NewRegistry()
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64() * 10)
		both.Observe("h", v)
		if i%2 == 0 {
			a.Observe("h", v)
		} else {
			b.Observe("h", v)
		}
	}
	m := a.Snapshot().Merge(b.Snapshot()).Hists["h"]
	w := both.Snapshot().Hists["h"]
	if m.Count != w.Count || m.Min != w.Min || m.Max != w.Max {
		t.Fatalf("merged moments diverge: %+v vs %+v", m, w)
	}
	if m.P50 != w.P50 || m.P95 != w.P95 || m.P99 != w.P99 {
		t.Fatalf("merged bucket quantiles diverge: %+v vs %+v", m, w)
	}
	if len(m.Buckets) != len(w.Buckets) {
		t.Fatalf("merged buckets %d vs combined %d", len(m.Buckets), len(w.Buckets))
	}
}

// TestHistBoundedMemoryAtMillionObservations is the allocation guard: one
// million observations over nine decades collapse into a bounded bucket set,
// and the steady-state Observe path allocates nothing.
func TestHistBoundedMemoryAtMillionObservations(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1<<10)
	for i := range vals {
		vals[i] = math.Exp(rng.Float64()*20 - 10)
	}
	for i := 0; i < 1_000_000; i++ {
		r.Observe("big", vals[i&(len(vals)-1)])
	}
	h := r.Snapshot().Hists["big"]
	if h.Count != 1_000_000 {
		t.Fatalf("count = %d", h.Count)
	}
	// ~29 octaves × histSub sub-buckets is the value range's ceiling; the
	// sampled values touch far fewer, but any bound this side of "retain all
	// samples" proves fixed memory.
	if got, max := len(h.Buckets), 30*histSub; got > max {
		t.Fatalf("bucket count %d exceeds bound %d", got, max)
	}
	// Steady state: every value already has its bucket, so Observe performs
	// map increments only.
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Observe("big", vals[0])
	}); allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v per op", allocs)
	}
}

// TestHistStatQuantileFallback covers bucket-less HistStats (hand-built or
// from legacy merges): Quantile interpolates the precomputed anchors.
func TestHistStatQuantileFallback(t *testing.T) {
	h := HistStat{Count: 100, Min: 1, Max: 10, P50: 2, P95: 8, P99: 9}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 2}, {0.95, 8}, {0.99, 9}, {1, 10}, {0.25, 1.5}, {0.97, 8.5},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if (HistStat{}).Quantile(0.5) != 0 {
		t.Fatal("empty stat quantile should be 0")
	}
}
