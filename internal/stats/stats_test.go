package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBoxHistogramValidation(t *testing.T) {
	if _, err := NewBoxHistogram(nil); err == nil {
		t.Fatal("empty histogram should fail")
	}
	if _, err := NewBoxHistogram([]Bin{{Min: 10, Max: 5, Weight: 1}}); err == nil {
		t.Fatal("min>max should fail")
	}
	if _, err := NewBoxHistogram([]Bin{{Min: 1, Max: 5, Weight: 0}}); err == nil {
		t.Fatal("zero weight should fail")
	}
	if _, err := NewBoxHistogram([]Bin{{Min: 1, Max: 5, Weight: -2}}); err == nil {
		t.Fatal("negative weight should fail")
	}
}

// A NaN or infinite weight makes the cumulative weights meaningless: with
// a NaN, Mean is NaN and Sample never picks the bin.
func TestBoxHistogramRejectsNonFiniteWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewBoxHistogram([]Bin{{Min: 1, Max: 5, Weight: 1}, {Min: 10, Max: 20, Weight: w}})
		if err == nil || !strings.Contains(err.Error(), "non-finite weight") {
			t.Fatalf("weight %v: err = %v, want a non-finite weight error", w, err)
		}
	}
	big := []Bin{{Min: 1, Max: 5, Weight: math.MaxFloat64}, {Min: 10, Max: 20, Weight: math.MaxFloat64}}
	if _, err := NewBoxHistogram(big); err == nil {
		t.Fatal("weights summing to +Inf should fail")
	}
}

// Sample draws a bin's offset with Int63n(Max−Min+1), so a bin may hold at
// most math.MaxInt64 values; a wider one used to panic in Sample.
func TestBoxHistogramRejectsOverflowingSpan(t *testing.T) {
	for _, b := range []Bin{
		{Min: 0, Max: math.MaxInt64, Weight: 1},
		{Min: math.MinInt64, Max: 0, Weight: 1},
		{Min: math.MinInt64, Max: math.MaxInt64, Weight: 1},
		{Min: -1, Max: math.MaxInt64 - 1, Weight: 1},
	} {
		_, err := NewBoxHistogram([]Bin{b})
		if err == nil || !strings.Contains(err.Error(), "span") {
			t.Fatalf("bin [%d, %d]: err = %v, want a span error", b.Min, b.Max, err)
		}
	}
	// The widest bins that fit are accepted and sample inside their range.
	rng := rand.New(rand.NewSource(5))
	for _, b := range []Bin{
		{Min: 0, Max: math.MaxInt64 - 1, Weight: 1},
		{Min: math.MinInt64, Max: -2, Weight: 1},
		{Min: 1, Max: math.MaxInt64, Weight: 1},
	} {
		h, err := NewBoxHistogram([]Bin{b})
		if err != nil {
			t.Fatalf("bin [%d, %d]: %v", b.Min, b.Max, err)
		}
		for i := 0; i < 100; i++ {
			if v := h.Sample(rng); v < b.Min || v > b.Max {
				t.Fatalf("bin [%d, %d]: sample %d outside it", b.Min, b.Max, v)
			}
		}
	}
}

func TestBoxHistogramSampleBounds(t *testing.T) {
	h := MustBoxHistogram([]Bin{
		{Min: 10, Max: 20, Weight: 1},
		{Min: 100, Max: 200, Weight: 3},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := h.Sample(rng)
		if (v < 10 || v > 20) && (v < 100 || v > 200) {
			t.Fatalf("sample %d outside all bins", v)
		}
	}
}

func TestBoxHistogramWeighting(t *testing.T) {
	h := MustBoxHistogram([]Bin{
		{Min: 0, Max: 0, Weight: 1},
		{Min: 1, Max: 1, Weight: 3},
	})
	rng := rand.New(rand.NewSource(7))
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if h.Sample(rng) == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("bin-1 fraction = %.3f, want ≈0.75", frac)
	}
}

func TestBoxHistogramMeanAnalytic(t *testing.T) {
	h := MustBoxHistogram([]Bin{
		{Min: 0, Max: 10, Weight: 1},
		{Min: 20, Max: 40, Weight: 1},
	})
	want := (5.0 + 30.0) / 2
	if got := h.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestNTLikeMatchesPaperStats(t *testing.T) {
	h := NTLike()
	if h.Min() != 6 {
		t.Fatalf("min = %d, want 6 (paper §3.3)", h.Min())
	}
	if h.Max() < 43_000_000 || h.Max() > 46_000_000 {
		t.Fatalf("max = %d, want slightly over 43 MB", h.Max())
	}
	mean := h.Mean()
	if mean < 3500 || mean > 5300 {
		t.Fatalf("analytic mean = %.0f, want near 4401 (paper §3.3)", mean)
	}
	// Empirical mean should agree with the analytic mean.
	rng := rand.New(rand.NewSource(42))
	var o Online
	for i := 0; i < 300000; i++ {
		o.Add(float64(h.Sample(rng)))
	}
	if rel := math.Abs(o.Mean()-mean) / mean; rel > 0.15 {
		t.Fatalf("empirical mean %.0f deviates %.0f%% from analytic %.0f",
			o.Mean(), rel*100, mean)
	}
}

func TestUniformAndConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := Uniform(5, 9)
	for i := 0; i < 1000; i++ {
		if v := u.Sample(rng); v < 5 || v > 9 {
			t.Fatalf("uniform sample %d out of [5,9]", v)
		}
	}
	c := Constant(123)
	for i := 0; i < 10; i++ {
		if v := c.Sample(rng); v != 123 {
			t.Fatalf("constant sample = %d, want 123", v)
		}
	}
}

func TestPropertyHistogramSampleInBounds(t *testing.T) {
	f := func(seed int64, minRaw, spanRaw uint16) bool {
		min := int64(minRaw)
		max := min + int64(spanRaw)
		h := Uniform(min, max)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := h.Sample(rng)
			if v < min || v > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	// Stable.
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	// Order-sensitive.
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("DeriveSeed ignores dimension order")
	}
	// Dimension-count-sensitive.
	if DeriveSeed(1, 2) == DeriveSeed(1, 2, 0) {
		t.Fatal("DeriveSeed ignores dimension count")
	}
	// No collisions across a modest grid (sanity, not crypto).
	seen := map[int64][2]int64{}
	for q := int64(0); q < 200; q++ {
		for r := int64(0); r < 50; r++ {
			s := DeriveSeed(99, q, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d)", prev[0], prev[1], q, r)
			}
			seen[s] = [2]int64{q, r}
		}
	}
}

func TestSubRandIndependence(t *testing.T) {
	a := SubRand(7, 1)
	b := SubRand(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams look correlated: %d/100 equal draws", same)
	}
}

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Min() != 0 || o.Max() != 0 || o.Std() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", o.Mean())
	}
	if math.Abs(o.Std()-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", o.Std())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", o.Min(), o.Max())
	}
	if math.Abs(o.Sum()-40) > 1e-9 {
		t.Fatalf("Sum = %v, want 40", o.Sum())
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 }
		var seq, a, b Online
		for _, x := range xs {
			if !ok(x) {
				return true
			}
			seq.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			if !ok(y) {
				return true
			}
			seq.Add(y)
			b.Add(y)
		}
		a.Merge(&b)
		if a.N() != seq.N() {
			return false
		}
		if seq.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(seq.Mean()))
		return math.Abs(a.Mean()-seq.Mean()) < tol &&
			math.Abs(a.Var()-seq.Var()) < 1e-6*(1+seq.Var()) &&
			a.Min() == seq.Min() && a.Max() == seq.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "procs", "time")
	tb.AddRowf(2, 450.25)
	tb.AddRowf(96, 40.2)
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "procs") ||
		!strings.Contains(s, "450.25") || !strings.Contains(s, "40.20") {
		t.Fatalf("unexpected rendering:\n%s", s)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	csv := tb.CSV()
	want := "a,b\n\"has,comma\",\"has\"\"quote\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")
	if !strings.Contains(tb.CSV(), "x,,") {
		t.Fatalf("short row not padded: %q", tb.CSV())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v, want 2", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.75); got != 7.5 {
		t.Fatalf("interp = %v, want 7.5", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Quantiles(xs, 0.5, 0.9, 1)
	if got[0] != 5.5 || got[2] != 10 {
		t.Fatalf("quantiles = %v", got)
	}
	if got[1] < 9 || got[1] > 10 {
		t.Fatalf("p90 = %v", got[1])
	}
	empty := Quantiles(nil, 0.5, 0.9)
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("empty quantiles = %v", empty)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		min, max := float64(raw[0]), float64(raw[0])
		for i, r := range raw {
			xs[i] = float64(r)
			if xs[i] < min {
				min = xs[i]
			}
			if xs[i] > max {
				max = xs[i]
			}
		}
		prev := min - 1
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := Quantile(xs, q)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
