package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"s3asim/internal/stats"
)

// resultsHash folds every generated value of w — each query's length and
// region, and each result's index, fragment, score bits, size and offset,
// in file order — into one FNV-1a hash.
func resultsHash(w *Workload) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, q := range w.Queries {
		put(uint64(q.Length))
		put(uint64(q.Region))
		for _, r := range q.Results {
			put(uint64(r.Index))
			put(uint64(r.Fragment))
			put(math.Float64bits(r.Score))
			put(uint64(r.Size))
			put(uint64(r.Offset))
		}
	}
	return h.Sum64()
}

// uniformSpec is a uniform-histogram workload of the shape the captured-data
// and chaos benchmarks use.
func uniformSpec(queries, frags, minRes, maxRes int) Spec {
	return Spec{
		NumQueries:    queries,
		NumFragments:  frags,
		QueryHist:     stats.Uniform(200, 2000),
		DBSeqHist:     stats.Uniform(200, 20000),
		MinResults:    minRes,
		MaxResults:    maxRes,
		MinResultSize: 512,
		Seed:          DefaultSpec().Seed,
	}
}

// TestGenerateResultsGolden pins every value Generate draws, not just the
// aggregates TestDefaultWorkloadGolden checks: a change to the substream
// generator that moved any draw would change a hash.
func TestGenerateResultsGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want uint64
	}{
		{"default", DefaultSpec(), 0x380c32c81a5c743a},
		{"verify-shape", uniformSpec(16, 16, 75, 75), 0x46e3b494a3fc90d0},
		{"chaos-shape", uniformSpec(20, 32, 200, 400), 0xaa22cce63034b516},
	}
	for _, c := range cases {
		if got := resultsHash(Generate(c.spec)); got != c.want {
			t.Errorf("%s: results hash = %#x, want %#x", c.name, got, c.want)
		}
	}
}
