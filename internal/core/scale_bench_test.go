package core

import (
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"s3asim/internal/search"
)

// TestScaleWorkers10kSmoke runs one 10k-rank scale cell end to end; CI
// additionally runs it under -race, shaking the FSM engine's kernel paths
// (park/resume, pooled waiters, drain/offset distribution at fan-out) at a
// scale the golden matrix never reaches. -short skips it — it is a
// multi-second simulation.
func TestScaleWorkers10kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 10k-rank cell")
	}
	cfg := ScaleConfig(10_000)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.Overall <= 0 {
		t.Fatalf("degenerate report: events=%d overall=%v", rep.Events, rep.Overall)
	}
	if rep.FileCoverage <= 0 {
		t.Fatalf("no output written: coverage=%d", rep.FileCoverage)
	}
}

// BenchmarkScaleWorkers measures the engine at rank counts far beyond the
// paper's 128-process ceiling: 1k, 10k, and 100k ranks over the bounded
// ScaleConfig workload. Reported metrics:
//
//	events/sec  — calendar throughput (virtual events per wall second)
//	memB/rank   — peak sampled memory (heap + goroutine stacks) divided
//	              by rank count, the per-rank footprint the FSM worker
//	              exists to shrink (acceptance: 100k ranks within ~2 GB).
//	              Stack memory is counted because it does not appear in
//	              HeapAlloc.
//
// The workload is generated once outside the timed region, so the numbers
// are the simulation engine's alone.
func BenchmarkScaleWorkers(b *testing.B) {
	for _, ranks := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := ScaleConfig(ranks)
			wl := search.Generate(cfg.EffectiveWorkload())
			b.ReportAllocs()

			// Peak-memory sampler: HeapAlloc+StackSys polled on a short
			// ticker. An upper bound on live memory (garbage counts until
			// a GC), which is the honest figure for "does the cell fit".
			var peak atomic.Uint64
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				tick := time.NewTicker(10 * time.Millisecond)
				defer tick.Stop()
				var ms goruntime.MemStats
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						goruntime.ReadMemStats(&ms)
						mem := ms.HeapAlloc + ms.StackSys
						for {
							old := peak.Load()
							if mem <= old || peak.CompareAndSwap(old, mem) {
								break
							}
						}
					}
				}
			}()

			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := RunWithWorkload(cfg, wl)
				if err != nil {
					b.Fatal(err)
				}
				events += rep.Events
			}
			b.StopTimer()
			close(stop)
			<-done

			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(peak.Load())/float64(ranks), "memB/rank")
		})
	}
}
