package search

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"s3asim/internal/stats"
)

// Key returns a deterministic content key for the spec: every scalar field,
// the seed, and the full bin sets of both histograms. Two specs with equal
// keys generate identical workloads, so the key is a safe memoization index
// even across specs holding different (but equal-content) histogram
// pointers.
func (s Spec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q=%d f=%d r=%d..%d min=%d seed=%d",
		s.NumQueries, s.NumFragments, s.MinResults, s.MaxResults,
		s.MinResultSize, s.Seed)
	writeHist := func(name string, h *stats.BoxHistogram) {
		fmt.Fprintf(&b, " %s=", name)
		if h == nil {
			b.WriteString("nil")
			return
		}
		for _, bin := range h.Bins() {
			// Weight is hashed bit-exactly; %g could collide distinct values.
			fmt.Fprintf(&b, "[%d,%d,%x]", bin.Min, bin.Max,
				math.Float64bits(bin.Weight))
		}
	}
	writeHist("qh", s.QueryHist)
	writeHist("dh", s.DBSeqHist)
	return b.String()
}

// CacheStats counts cache outcomes. Misses is the number of distinct specs
// generated; Hits the number of Get calls served from memory.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// cacheEntry is a single memoized workload. The once gate makes each
// distinct spec generate exactly once even under concurrent Get.
type cacheEntry struct {
	once sync.Once
	wl   *Workload
}

// Cache memoizes generated workloads by Spec.Key. It is safe for concurrent
// use: a sweep running cells on many goroutines generates each distinct
// workload once and shares the result.
//
// Sharing is sound because a generated Workload is immutable: Generate
// materializes every query, result, offset and per-fragment index up front,
// TaskResults returns a fresh copy, and FillContent computes file content
// as a pure function of (seed, file offset) — no lazy buffers, no hidden
// mutation.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   CacheStats
}

// NewCache returns an empty workload cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Get returns the workload for spec, generating it on first use. Concurrent
// Gets for the same spec block until the single generation completes and
// then share one *Workload.
func (c *Cache) Get(spec Spec) *Workload {
	k := spec.Key()
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry{}
		c.entries[k] = e
		c.stats.Misses++
	} else {
		c.stats.Hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.wl = Generate(spec) })
	return e.wl
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
