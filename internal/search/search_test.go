package search

import (
	"testing"
	"testing/quick"

	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// smallSpec is a fast, fully checkable workload.
func smallSpec() Spec {
	return Spec{
		NumQueries:    4,
		NumFragments:  8,
		QueryHist:     stats.Uniform(50, 500),
		DBSeqHist:     stats.Uniform(50, 2000),
		MinResults:    20,
		MaxResults:    40,
		MinResultSize: 16,
		Seed:          11,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallSpec())
	b := Generate(smallSpec())
	if a.TotalBytes != b.TotalBytes || len(a.Queries) != len(b.Queries) {
		t.Fatal("generation is not deterministic")
	}
	for q := range a.Queries {
		if len(a.Queries[q].Results) != len(b.Queries[q].Results) {
			t.Fatalf("query %d result counts differ", q)
		}
		for i := range a.Queries[q].Results {
			if a.Queries[q].Results[i] != b.Queries[q].Results[i] {
				t.Fatalf("query %d result %d differs", q, i)
			}
		}
	}
}

func TestResultCountsInRange(t *testing.T) {
	w := Generate(smallSpec())
	for q, qry := range w.Queries {
		n := len(qry.Results)
		if n < 20 || n > 40 {
			t.Fatalf("query %d has %d results, want [20,40]", q, n)
		}
	}
}

func TestResultSizesRespectModel(t *testing.T) {
	spec := smallSpec()
	w := Generate(spec)
	for q, qry := range w.Queries {
		for i, r := range qry.Results {
			if r.Size < spec.MinResultSize {
				t.Fatalf("query %d result %d size %d below minimum", q, i, r.Size)
			}
			// Upper bound: 3 × max(queryLen, dbMax).
			limit := 3 * max64(qry.Length, spec.DBSeqHist.Max())
			if limit < spec.MinResultSize {
				limit = spec.MinResultSize
			}
			if r.Size > limit {
				t.Fatalf("query %d result %d size %d above 3×max bound %d", q, i, r.Size, limit)
			}
		}
	}
}

func TestFileLayoutContiguousAndScoreOrdered(t *testing.T) {
	w := Generate(smallSpec())
	var expect int64
	for q, qry := range w.Queries {
		if qry.Region != expect {
			t.Fatalf("query %d region %d, want %d", q, qry.Region, expect)
		}
		off := qry.Region
		prevScore := 2.0
		for i, r := range qry.Results {
			if r.Offset != off {
				t.Fatalf("query %d result %d offset %d, want %d (dense layout)", q, i, r.Offset, off)
			}
			if r.Score > prevScore {
				t.Fatalf("query %d results not in descending score order", q)
			}
			prevScore = r.Score
			off += r.Size
		}
		if off-qry.Region != qry.Bytes {
			t.Fatalf("query %d Bytes %d, want %d", q, qry.Bytes, off-qry.Region)
		}
		expect = off
	}
	if w.TotalBytes != expect {
		t.Fatalf("TotalBytes %d, want %d", w.TotalBytes, expect)
	}
}

func TestTaskResultsPartitionQuery(t *testing.T) {
	w := Generate(smallSpec())
	for q, qry := range w.Queries {
		seen := map[int64]bool{}
		total := 0
		var bytes int64
		for f := 0; f < w.Spec.NumFragments; f++ {
			rs := w.TaskResults(q, f)
			prev := 2.0
			for _, r := range rs {
				if r.Fragment != f || r.Query != q {
					t.Fatalf("task (%d,%d) returned foreign result %+v", q, f, r)
				}
				if seen[r.Offset] {
					t.Fatalf("result offset %d appears in two fragments", r.Offset)
				}
				seen[r.Offset] = true
				if r.Score > prev {
					t.Fatalf("task results not score-ordered")
				}
				prev = r.Score
				total++
			}
			if got := w.TaskBytes(q, f); got != sumSizes(rs) {
				t.Fatalf("TaskBytes(%d,%d) = %d, want %d", q, f, got, sumSizes(rs))
			}
			bytes += w.TaskBytes(q, f)
		}
		if total != len(qry.Results) {
			t.Fatalf("query %d fragments hold %d results, want %d", q, total, len(qry.Results))
		}
		if bytes != qry.Bytes {
			t.Fatalf("query %d fragment bytes %d, want %d", q, bytes, qry.Bytes)
		}
	}
}

func sumSizes(rs []Result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Size
	}
	return n
}

func TestWorkloadIndependentOfNothingButSpec(t *testing.T) {
	// Changing the seed must change the workload; everything else equal.
	a := Generate(smallSpec())
	spec := smallSpec()
	spec.Seed++
	b := Generate(spec)
	if a.TotalBytes == b.TotalBytes {
		t.Fatal("different seeds produced identical total bytes (suspicious)")
	}
}

func TestDefaultSpecMatchesPaper(t *testing.T) {
	spec := DefaultSpec()
	if spec.NumQueries != 20 || spec.NumFragments != 128 {
		t.Fatalf("spec = %+v, want 20 queries over 128 fragments (paper §3.3)", spec)
	}
	if spec.MinResults != 1000 || spec.MaxResults != 2000 {
		t.Fatal("result count should be 1000–2000 per query (paper §3.3)")
	}
	w := Generate(spec)
	mb := float64(w.TotalBytes) / 1e6
	if mb < 190 || mb < 0 || mb > 225 {
		t.Fatalf("default workload = %.1f MB, want ≈208 MB (paper §3.3)", mb)
	}
	// ~20 queries at NT-like sizes ⇒ tens of KB of query data.
	var qbytes int64
	for _, q := range w.Queries {
		qbytes += q.Length
	}
	if qbytes < 10_000 || qbytes > 2_000_000 {
		t.Fatalf("total query bytes = %d, want roughly 86 KB scale", qbytes)
	}
}

func TestComputeModelScaling(t *testing.T) {
	m := DefaultComputeModel()
	base := m.TaskTime(100_000, 1)
	fast := m.TaskTime(100_000, 10)
	slow := m.TaskTime(100_000, 0.1)
	if fast >= base || slow <= base {
		t.Fatalf("speed scaling wrong: slow=%v base=%v fast=%v", slow, base, fast)
	}
	// Startup must not scale with speed.
	if m.TaskTime(0, 100) != m.Startup {
		t.Fatalf("zero-byte task = %v, want startup %v", m.TaskTime(0, 100), m.Startup)
	}
	// Linear part scales inversely.
	linBase := base - m.Startup
	linFast := fast - m.Startup
	if linFast < linBase/11 || linFast > linBase/9 {
		t.Fatalf("linear part at speed 10 = %v, want ≈ %v", linFast, linBase/10)
	}
	if m.TaskTime(100, 0) != m.TaskTime(100, 1) {
		t.Fatal("speed 0 should behave as speed 1")
	}
}

func TestComputeModelPaperCalibration(t *testing.T) {
	// Paper §4: with 64 processes the per-worker compute totals are ≈54 s at
	// speed 0.1 and slightly more than 0.8 s at speed 25.6.
	w := Generate(DefaultSpec())
	m := DefaultComputeModel()
	workers := 63.0
	perWorker := func(speed float64) float64 {
		var total des.Time
		for q := 0; q < w.Spec.NumQueries; q++ {
			for f := 0; f < w.Spec.NumFragments; f++ {
				total += m.TaskTime(w.TaskBytes(q, f), speed)
			}
		}
		return total.Seconds() / workers
	}
	slow := perWorker(0.1)
	fast := perWorker(25.6)
	if slow < 40 || slow > 70 {
		t.Fatalf("compute/worker at speed 0.1 = %.1f s, want ≈54 s", slow)
	}
	if fast < 0.5 || fast > 1.5 {
		t.Fatalf("compute/worker at speed 25.6 = %.2f s, want ≈0.85 s", fast)
	}
}

// Property: for any valid small spec, the per-fragment partition of each
// query is complete and non-overlapping, and offsets are dense.
func TestPropertyPartitionComplete(t *testing.T) {
	f := func(seed int64, nfRaw, nqRaw uint8) bool {
		spec := smallSpec()
		spec.Seed = seed
		spec.NumFragments = int(nfRaw%16) + 1
		spec.NumQueries = int(nqRaw%4) + 1
		w := Generate(spec)
		for q := range w.Queries {
			count := 0
			var b int64
			for fr := 0; fr < spec.NumFragments; fr++ {
				rs := w.TaskResults(q, fr)
				count += len(rs)
				b += sumSizes(rs)
			}
			if count != len(w.Queries[q].Results) || b != w.Queries[q].Bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkloadGolden(t *testing.T) {
	// Pin the default workload's aggregate shape so unintentional changes
	// to generation (which would silently invalidate every calibrated
	// experiment) fail loudly. Update deliberately if the spec changes.
	w := Generate(DefaultSpec())
	if w.TotalBytes != 206848530 {
		t.Fatalf("TotalBytes = %d (calibration golden: 206848530)", w.TotalBytes)
	}
	var results int
	var maxTask int64
	for q := range w.Queries {
		results += len(w.Queries[q].Results)
		for f := 0; f < w.Spec.NumFragments; f++ {
			if b := w.TaskBytes(q, f); b > maxTask {
				maxTask = b
			}
		}
	}
	if results != 28793 {
		t.Fatalf("results = %d (golden: 28793)", results)
	}
	if maxTask != 3221566 {
		t.Fatalf("max task = %d (golden: 3221566)", maxTask)
	}
}
