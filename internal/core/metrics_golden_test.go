package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
)

// This block pins the registry's whole output byte for byte: the JSON of
// Report.Metrics (counters, gauges, histograms with their buckets and
// exemplars), Report.Windows and Report.Alerts. The engine goldens pin
// counters only; these cells cover the histogram, window, exemplar and
// event-time backfill paths a change to internal/obs could move.

// metricsFingerprint hashes the JSON of a run's snapshot, windows and
// alerts. encoding/json writes map keys in sorted order, so the hash does
// not depend on map iteration.
func metricsFingerprint(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Metrics obs.Snapshot
		Windows *obs.Series
		Alerts  []obs.Alert
	}{rep.Metrics, rep.Windows, rep.Alerts})
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// chaosShapeCell is the perfbench chaos cell's shape on the golden
// workload: the resilient protocol under three seeded crashes that restart
// after 25ms, a 2ms detector sweep, 500ms windows and one alert rule.
func chaosShapeCell(t *testing.T) Config {
	cfg := goldenConfig()
	cfg.Procs = 16
	cfg.Strategy = WWList
	cfg.Resilient = true
	cfg.DetectInterval = 2 * des.Millisecond
	cfg.FaultPlan = fault.RandomCrashes(3, 3, cfg.WorkerRanks(),
		100*des.Millisecond, 2*des.Second, 25*des.Millisecond)
	rule, err := obs.ParseRule("crashes:rate(fault.crashes)>0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &obs.Telemetry{Window: 500 * des.Millisecond, Rules: []*obs.Rule{rule}}
	return cfg
}

func TestMetricsSnapshotGolden(t *testing.T) {
	cases := []struct {
		name   string
		hash   string
		config func(t *testing.T) Config
	}{
		{name: "WW-List_telemetry", hash: "ae5c7b3ec845459e37a9d8811cd360e150a614fe8b682d7244efad7bede60d60",
			config: func(*testing.T) Config {
				cfg := goldenConfig()
				cfg.Strategy = WWList
				cfg.Telemetry = &obs.Telemetry{Window: 100 * des.Millisecond}
				return cfg
			}},
		{name: "chaos_shape", hash: "d23b025b080ffb1dbf0a0fddc16e209abcd0ae8165f216ffb14cad50580cb285", config: chaosShapeCell},
		{name: "serve_tenants", hash: "e2368330e09a349d73b83ec676b7d773a31e0c51941cd61b78478d9ee9323a85",
			config: func(t *testing.T) Config {
				cfg := serveConfig(2 * des.Millisecond)
				cfg.Serve.Tenants = []string{"a", "b", "a", "c", "b", "a"}
				cfg.Serve.SLO = 300 * des.Millisecond
				rule, err := obs.ParseRule("slow:p99(serve.latency)>0.5")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Telemetry = &obs.Telemetry{Window: 5 * des.Millisecond, Rules: []*obs.Rule{rule}}
				return cfg
			}},
		{name: "adaptive_readback", hash: "d5eecddf4fca8c1d71f74b04aaf3e4af97877237a5db8faf678d0b88064fc6a8",
			config: func(*testing.T) Config {
				cfg := goldenConfig()
				cfg.CaptureData = true
				cfg.Readback = &ReadbackConfig{InRunReads: 2, PostRun: true}
				cfg.Adaptive = &AdaptiveConfig{Gamma: 0.05}
				cfg.Telemetry = &obs.Telemetry{Window: 250 * des.Millisecond}
				return cfg
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, tc.config(t))
			if rep.Windows == nil || len(rep.Windows.Windows) < 2 {
				t.Fatalf("want a multi-window series, got %v", rep.Windows)
			}
			if err := rep.Windows.Conserve(rep.Metrics); err != nil {
				t.Fatal(err)
			}
			if got := metricsFingerprint(t, rep); got != tc.hash {
				t.Errorf("metrics fingerprint drifted:\n got %s\nwant %s", got, tc.hash)
			}
		})
	}
}
