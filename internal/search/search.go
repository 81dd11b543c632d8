// Package search implements S3aSim's workload model: pseudo-random
// generation of per-query result sets (count, score, size, owning database
// fragment), the layout of results in the output file (descending score
// order within a per-query region, exactly as the merged master order), and
// the compute-time model (constant startup plus time linear in result bytes,
// divided by the configurable compute speed — paper §3).
//
// Generation is driven entirely by substream seeds derived from
// (seed, query, result), so the workload — and therefore the output file —
// is identical for every process count and every I/O strategy, the property
// the paper states in §3.3.
package search

import (
	"math/rand"
	"sort"

	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// Spec describes a workload in the paper's own input-parameter vocabulary.
type Spec struct {
	NumQueries   int
	NumFragments int
	// QueryHist and DBSeqHist are the box histograms of query and database
	// sequence sizes (§3: "a box histogram of input query sizes, a box
	// histogram of database sequence sizes").
	QueryHist *stats.BoxHistogram
	DBSeqHist *stats.BoxHistogram
	// MinResults/MaxResults bound the result count per query over the
	// entire database.
	MinResults int
	MaxResults int
	// MinResultSize is the minimum result size per query result.
	MinResultSize int64
	Seed          int64
}

// DefaultSpec reproduces the paper's §3.3 configuration: 20 queries, 128
// fragments, NT-like size histograms, 1000–2000 results per query, about
// 208 MB of output in total.
func DefaultSpec() Spec {
	return Spec{
		NumQueries:    20,
		NumFragments:  128,
		QueryHist:     stats.NTLike(),
		DBSeqHist:     stats.NTLike(),
		MinResults:    1000,
		MaxResults:    2000,
		MinResultSize: 1024,
		// Seed is chosen so the generated output totals ≈208 MB (paper
		// §3.3) with a realistic heavy tail: the largest (query, fragment)
		// task produces ≈5 MB of results, giving the large compute-time
		// variance the paper's §4 discussion depends on.
		Seed: 2007029,
	}
}

// Result is one alignment hit: its query, per-query generation index,
// owning database fragment, score, output size, and final file offset.
type Result struct {
	Query    int
	Index    int
	Fragment int
	Score    float64
	Size     int64
	Offset   int64 // absolute offset in the output file
}

// Query is a generated query with its result set laid out in file order.
type Query struct {
	Length int64
	Region int64 // file offset where this query's results begin
	Bytes  int64 // total result bytes for this query
	// Results is sorted by descending score — the order the master's merge
	// produces and the order results appear in the file.
	Results []Result
	// byFragment[f] lists indices into Results for fragment f's hits,
	// preserving score order.
	byFragment [][]int
}

// Workload is a fully generated input: every query, every result, and the
// complete output-file layout.
type Workload struct {
	Spec       Spec
	Queries    []Query
	TotalBytes int64
}

// Generate builds the workload for spec. The same spec always yields the
// same workload.
func Generate(spec Spec) *Workload {
	if spec.NumQueries < 1 || spec.NumFragments < 1 {
		panic("search: spec needs at least one query and one fragment")
	}
	if spec.MaxResults < spec.MinResults {
		panic("search: MaxResults < MinResults")
	}
	if spec.MinResultSize < 1 {
		spec.MinResultSize = 1
	}
	w := &Workload{Spec: spec}
	// One generator, moved to each query's and each result's substream in
	// turn (stats.SubRand).
	rng := rand.New(stats.NewSource(0))
	var region int64
	for q := 0; q < spec.NumQueries; q++ {
		rng.Seed(stats.DeriveSeed(spec.Seed, int64(q)))
		qry := Query{
			Length: spec.QueryHist.Sample(rng),
			Region: region,
		}
		count := spec.MinResults
		if spec.MaxResults > spec.MinResults {
			count += rng.Intn(spec.MaxResults - spec.MinResults + 1)
		}
		qry.Results = make([]Result, count)
		for j := 0; j < count; j++ {
			rng.Seed(stats.DeriveSeed(spec.Seed, int64(q), int64(j)))
			dbLen := spec.DBSeqHist.Sample(rng)
			// Result size: up to three times the maximum of the input query
			// and the matching database sequence (§3), floored at the
			// minimum result size.
			maxSize := 3 * max64(qry.Length, dbLen)
			if maxSize < spec.MinResultSize {
				maxSize = spec.MinResultSize
			}
			size := spec.MinResultSize
			if maxSize > spec.MinResultSize {
				size += rng.Int63n(maxSize - spec.MinResultSize + 1)
			}
			qry.Results[j] = Result{
				Query:    q,
				Index:    j,
				Fragment: rng.Intn(spec.NumFragments),
				Score:    rng.Float64(),
				Size:     size,
			}
		}
		// File order: descending score, index as deterministic tiebreak.
		sort.Slice(qry.Results, func(a, b int) bool {
			ra, rb := qry.Results[a], qry.Results[b]
			if ra.Score != rb.Score {
				return ra.Score > rb.Score
			}
			return ra.Index < rb.Index
		})
		off := region
		qry.byFragment = make([][]int, spec.NumFragments)
		for i := range qry.Results {
			qry.Results[i].Offset = off
			off += qry.Results[i].Size
			f := qry.Results[i].Fragment
			qry.byFragment[f] = append(qry.byFragment[f], i)
		}
		qry.Bytes = off - region
		region = off
		w.Queries = append(w.Queries, qry)
	}
	w.TotalBytes = region
	return w
}

// TaskResults returns the results produced by searching query q against
// fragment f, in score (file) order. The returned slice is a fresh copy
// the caller owns.
func (w *Workload) TaskResults(q, f int) []Result {
	qry := &w.Queries[q]
	idx := qry.byFragment[f]
	out := make([]Result, len(idx))
	for i, k := range idx {
		out[i] = qry.Results[k]
	}
	return out
}

// TaskCount returns the number of results for task (q, f).
func (w *Workload) TaskCount(q, f int) int {
	return len(w.Queries[q].byFragment[f])
}

// TaskBytes returns the total result bytes for task (q, f).
func (w *Workload) TaskBytes(q, f int) int64 {
	var n int64
	for _, k := range w.Queries[q].byFragment[f] {
		n += w.Queries[q].Results[k].Size
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ComputeModel is the paper's search-time model: a constant startup cost
// per (query, fragment) task plus time linear in the bytes of results the
// task produces; the linear part is divided by the compute-speed factor
// (§4's "compute speed" sweep models faster hardware or better algorithms).
type ComputeModel struct {
	Startup des.Time // fixed cost per task, independent of compute speed
	PerByte des.Time // time per result byte at compute speed 1
}

// DefaultComputeModel is calibrated so a 64-process run at compute speed 1
// spends about 6 s of compute per worker, ~54 s at speed 0.1 and ~0.85 s at
// speed 25.6 — the figures the paper reports in §4.
func DefaultComputeModel() ComputeModel {
	return ComputeModel{
		Startup: 15750 * des.Microsecond,
		PerByte: 1610 * des.Nanosecond, // 1.61 µs per result byte
	}
}

// TaskTime returns the modeled search time for a task producing the given
// result bytes at the given compute speed (speed ≤ 0 treated as 1).
func (m ComputeModel) TaskTime(resultBytes int64, speed float64) des.Time {
	if speed <= 0 {
		speed = 1
	}
	lin := float64(m.PerByte) * float64(resultBytes) / speed
	return m.Startup + des.Time(lin)
}
