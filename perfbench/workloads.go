package main

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// defaultSeed is the paper's workload seed (search.DefaultSpec). At this
// seed every cell must reproduce the fingerprints committed in golden.txt,
// and batch must reproduce the 64-process rows of Figure 2.
const defaultSeed = 2007029

// cell is one simulation run of a pass: a name, a complete config, and the
// generated search workload it runs on (shared by a workload's cells).
type cell struct {
	name string
	cfg  core.Config
	wl   *search.Workload
}

// workload is one benchmark input set. build is the set-up step that is
// timed as setup_s: it generates the search workload and constructs every
// cell of a pass (fault plans included).
type workload struct {
	name string
	// input maps the run's seed to the seed the workload is generated
	// from (untimed; nil means the run's seed itself).
	input func(seed int64) int64
	build func(seed int64) []cell
	// calibrate is the reference loop run beside each cell (calib.go).
	calibrate func() float64
	// chaos-style cells carry a causal recorder and telemetry; the gate
	// checks their conservation invariants.
	causal bool
	// readback cells must verify their image and read back clean.
	readback bool
}

var workloads = []*workload{
	{
		name:      "batch",
		input:     paperScaleSeed,
		build:     buildBatch,
		calibrate: calHeapMap,
	},
	{
		name:      "verify",
		build:     buildVerify,
		calibrate: calPayload,
		readback:  true,
	},
	{
		name:      "chaos",
		build:     buildChaos,
		calibrate: calHeapMap,
		causal:    true,
	},
}

// inputSeed is the seed w's inputs are generated from on a run with seed.
func (w *workload) inputSeed(seed int64) int64 {
	if w.input == nil {
		return seed
	}
	return w.input(seed)
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, verify or chaos)", name)
}

// strategyCells crosses base with the four strategies and the given sync
// options, in the paper's presentation order.
func strategyCells(base core.Config, syncs ...bool) []cell {
	wl := search.Generate(base.EffectiveWorkload())
	var out []cell
	for _, s := range core.Strategies {
		for _, sync := range syncs {
			cfg := base
			cfg.Strategy = s
			cfg.QuerySync = sync
			name := s.String()
			if len(syncs) > 1 {
				name += "/" + syncName(sync)
			}
			out = append(out, cell{name: name, cfg: cfg, wl: wl})
		}
	}
	return out
}

func syncName(sync bool) string {
	if sync {
		return "sync"
	}
	return "no-sync"
}

// Bounds of a paper-scale workload: the paper reports about 208 MB of
// output, and its seed's largest task is about 5 MB.
const (
	paperMinBytes  = 150 << 20
	paperMaxBytes  = 300 << 20
	paperMaxResult = 8 << 20
)

// paperScaleSeed returns the first seed of the sequence seed,
// seed+1000003, ... whose paper workload is paper-scale: total output
// within [paperMinBytes, paperMaxBytes] and no result above
// paperMaxResult. The NT-like size histograms have a tail out to 45 Mbp,
// so about two seeds in three draw a workload with a single result of tens
// of megabytes or gigabytes of output in all, and batch's host time would
// swing several-fold from seed to seed. The paper seed is paper-scale.
func paperScaleSeed(seed int64) int64 {
	for s := seed; ; s += 1_000_003 {
		spec := search.DefaultSpec()
		spec.Seed = s
		if paperScale(search.Generate(spec)) {
			return s
		}
	}
}

func paperScale(wl *search.Workload) bool {
	if wl.TotalBytes < paperMinBytes || wl.TotalBytes > paperMaxBytes {
		return false
	}
	for _, q := range wl.Queries {
		for _, r := range q.Results {
			if r.Size > paperMaxResult {
				return false
			}
		}
	}
	return true
}

// buildBatch is the paper's §3.3 setup at 64 processes: every strategy with
// and without query sync, no data capture and no observers.
func buildBatch(seed int64) []cell {
	base := core.DefaultConfig()
	base.Workload.Seed = seed
	return strategyCells(base, false, true)
}

// buildVerify is a small captured-data run with a 50/50 GET/PUT mix and a
// full post-run re-read, over three static strategies and the adaptive
// controller. Every query has the same result count: this workload's host
// time is proportional to the result count, so a drawn count would make
// it swing with the seed.
func buildVerify(seed int64) []cell {
	base := core.DefaultConfig()
	base.Procs = 16
	base.Workload.NumQueries = 16
	base.Workload.NumFragments = 16
	base.Workload.MinResults = 75
	base.Workload.MaxResults = 75
	base.Workload.QueryHist = stats.Uniform(200, 2000)
	base.Workload.DBSeqHist = stats.Uniform(200, 20000)
	base.Workload.MinResultSize = 512
	base.Workload.Seed = seed
	base.CaptureData = true
	base.Readback = &core.ReadbackConfig{Method: romio.ListIO, InRunReads: 1, PostRun: true}
	wl := search.Generate(base.EffectiveWorkload())
	var cells []cell
	for _, s := range []core.Strategy{core.MW, core.WWList, core.WWColl} {
		cfg := base
		cfg.Strategy = s
		cells = append(cells, cell{name: s.String(), cfg: cfg, wl: wl})
	}
	ad := base
	ad.Adaptive = &core.AdaptiveConfig{Gamma: 0.05}
	cells = append(cells, cell{name: "Adaptive", cfg: ad, wl: wl})
	return cells
}

// buildChaos runs the resilient protocol under three seeded worker crashes
// (restarting after 25ms) over all four strategies, with telemetry windows
// and one alert rule on. The causal recorder is attached per run. Result
// sizes are drawn from uniform histograms: under the paper's heavy-tailed
// ones the virtual run length, and with it the failure detector's sweep
// count, varies several-fold from seed to seed.
func buildChaos(seed int64) []cell {
	base := core.DefaultConfig()
	base.Procs = 32
	base.Workload.NumFragments = 32
	base.Workload.MinResults = 200
	base.Workload.MaxResults = 400
	base.Workload.QueryHist = stats.Uniform(200, 2000)
	base.Workload.DBSeqHist = stats.Uniform(200, 20000)
	base.Workload.MinResultSize = 512
	base.Workload.Seed = seed
	base.Resilient = true
	base.DetectInterval = 2 * des.Millisecond
	base.FaultPlan = fault.RandomCrashes(seed, 3, base.WorkerRanks(),
		100*des.Millisecond, 2*des.Second, 25*des.Millisecond)
	rule, err := obs.ParseRule("crashes:rate(fault.crashes)>0")
	if err != nil {
		panic(err) // a constant rule that does not parse is a bug here
	}
	base.Telemetry = &obs.Telemetry{Window: 500 * des.Millisecond, Rules: []*obs.Rule{rule}}
	return strategyCells(base, false)
}

// runCell runs one cell on the reused kernel.
func (w *workload) runCell(c *cell, sim *des.Simulation) (*core.Report, error) {
	cfg := c.cfg
	cfg.Sim = sim
	if w.causal {
		cfg.Causal = causal.NewRecorder()
	}
	return core.RunWithWorkload(cfg, c.wl)
}
