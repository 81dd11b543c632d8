package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// ScalePoint is one cell of the rank-scaling study: the virtual-time
// observables (deterministic) plus this host's wall clock and peak
// sampled memory (heap + goroutine stacks) for the cell.
type ScalePoint struct {
	Ranks   int
	Events  uint64
	Overall des.Time
	Wall    time.Duration
	PeakMem uint64
}

// MemPerRank is the peak memory footprint divided by rank count.
func (p ScalePoint) MemPerRank() float64 { return float64(p.PeakMem) / float64(p.Ranks) }

// EventsPerSecond is calendar throughput in wall-clock terms.
func (p ScalePoint) EventsPerSecond() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Events) / p.Wall.Seconds()
}

// ScaleSweep runs the rank-scaling study: core.ScaleConfig at each given
// rank count. This is the tentpole measurement behind the FSM worker
// engine (DESIGN.md §12): the workload's task count is bounded, so the
// sweep isolates how the engine's per-rank cost scales.
//
// Unlike every other suite the cells run strictly sequentially — a
// 100k-rank cell holds a gigabyte-class heap, and running two at once
// would turn a memory measurement into an OOM test. For the same reason
// the memory figure is sampled process-wide and is only meaningful
// because nothing else runs concurrently.
func ScaleSweep(ranks []int) ([]ScalePoint, error) {
	cache := search.NewCache()
	points := make([]ScalePoint, 0, len(ranks))
	for _, n := range ranks {
		cfg := core.ScaleConfig(n)
		wl := cache.Get(cfg.EffectiveWorkload())

		var peak atomic.Uint64
		stop := make(chan struct{})
		done := make(chan struct{})
		go samplePeakMem(&peak, stop, done)

		start := time.Now()
		rep, err := core.RunWithWorkload(cfg, wl)
		wall := time.Since(start)
		close(stop)
		<-done
		if err != nil {
			return nil, err
		}
		points = append(points, ScalePoint{
			Ranks:   n,
			Events:  rep.Events,
			Overall: rep.Overall,
			Wall:    wall,
			PeakMem: peak.Load(),
		})
	}
	return points, nil
}

// ScaleTable renders the sweep's virtual-time observables — the
// deterministic columns, reproduced bit-identically on any host. Host
// performance (wall clock, memory) stays off the table so harness stdout
// remains machine-independent; read it from the ScalePoints directly.
func ScaleTable(points []ScalePoint) *stats.Table {
	t := stats.NewTable(
		"rank scaling — bounded task count, FSM worker engine",
		"ranks", "events", "overall (s)")
	for _, p := range points {
		t.AddRowf(p.Ranks, p.Events, p.Overall.Seconds())
	}
	return t
}

// samplePeakMem polls HeapAlloc+StackSys until stop closes, tracking the
// maximum in peak. Stack memory is counted because goroutine processes
// (masters, and any goroutine-backed rank) keep it outside HeapAlloc.
func samplePeakMem(peak *atomic.Uint64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			runtime.ReadMemStats(&ms)
			mem := ms.HeapAlloc + ms.StackSys
			for {
				old := peak.Load()
				if mem <= old || peak.CompareAndSwap(old, mem) {
					break
				}
			}
		}
	}
}
