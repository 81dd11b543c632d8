package core

import (
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// adaptiveConfig is tinyConfig with enough queries for the controller to get
// past its bootstrap phase and a bimodal size distribution, so no single arm
// is best everywhere.
func adaptiveConfig() Config {
	cfg := tinyConfig()
	cfg.Workload.NumQueries = 24
	cfg.Workload.QueryHist = stats.MustBoxHistogram([]stats.Bin{
		{Min: 60, Max: 100, Weight: 1},
		{Min: 3000, Max: 5000, Weight: 1},
	})
	cfg.Adaptive = &AdaptiveConfig{}
	return cfg
}

func TestAdaptiveRunVerifiesImage(t *testing.T) {
	for _, qs := range []bool{false, true} {
		cfg := adaptiveConfig()
		cfg.QuerySync = qs
		rep := mustRun(t, cfg)
		if !rep.Verified {
			t.Fatalf("sync=%v: image not verified", qs)
		}
		if rep.OverlappedBytes != 0 {
			t.Fatalf("sync=%v: %d overlapped bytes", qs, rep.OverlappedBytes)
		}
		ad := rep.Adaptive
		if ad == nil {
			t.Fatal("Report.Adaptive missing")
		}
		if len(ad.Arms) != 3 {
			t.Fatalf("default arm set has %d arms", len(ad.Arms))
		}
		// With the device-model prior there is no forced bootstrap: an arm
		// priced clearly worst may legitimately never be assigned. Every
		// batch must still carry exactly one decision.
		var assigned int64
		for _, n := range ad.Assigned {
			assigned += n
		}
		if want := int64(cfg.Workload.NumQueries); assigned != want {
			t.Fatalf("assigned %d batches, want %d", assigned, want)
		}
		if len(ad.BatchArms) != cfg.Workload.NumQueries {
			t.Fatalf("BatchArms has %d entries", len(ad.BatchArms))
		}
		for b, arm := range ad.BatchArms {
			if arm < 0 || arm >= len(ad.Arms) {
				t.Fatalf("batch %d has no decided arm (%d)", b, arm)
			}
		}
	}
}

func TestAdaptiveSingleArmUsesThatArm(t *testing.T) {
	for _, s := range []Strategy{MW, WWPosix, WWList, WWColl} {
		cfg := adaptiveConfig()
		cfg.Adaptive = &AdaptiveConfig{Strategies: []Strategy{s}}
		rep := mustRun(t, cfg)
		if !rep.Verified {
			t.Fatalf("%v: image not verified", s)
		}
		for b, arm := range rep.Adaptive.BatchArms {
			if arm != 0 {
				t.Fatalf("%v: batch %d assigned arm %d", s, b, arm)
			}
		}
	}
}

func TestAdaptiveCausalAttributionFlows(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.Causal = causal.NewRecorder()
	rep := mustRun(t, cfg)
	if err := rep.Attribution.Check(); err != nil {
		t.Fatalf("attribution conservation: %v", err)
	}
	var attr des.Time
	for _, bd := range rep.Adaptive.ArmAttr {
		attr += bd.Total()
	}
	if attr <= 0 {
		t.Fatal("no per-arm causal attribution accumulated")
	}
	// The same config without a recorder must produce the identical schedule
	// (the recorder is passive) and zero attribution.
	plain := mustRun(t, adaptiveConfig())
	if plain.Overall != rep.Overall {
		t.Fatalf("causal recorder perturbed the run: %v vs %v", rep.Overall, plain.Overall)
	}
	for _, bd := range plain.Adaptive.ArmAttr {
		if bd.Total() != 0 {
			t.Fatal("attribution without a recorder")
		}
	}
}

func TestAdaptiveHintSearchRuns(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.Workload.NumQueries = 48
	cfg.Adaptive = &AdaptiveConfig{
		Strategies: []Strategy{WWColl},
		EpochLen:   4,
		TuneCB:     true,
	}
	rep := mustRun(t, cfg)
	ad := rep.Adaptive
	if ad.Epochs == 0 {
		t.Fatal("hint search never closed an epoch")
	}
	if ad.ProbeEpochs == 0 && !ad.Converged {
		t.Fatal("hint search neither probed nor converged")
	}
	if n := len(rep.Workers); ad.FinalHints.CBNodes > n {
		t.Fatalf("final cb_nodes %d exceeds worker count %d", ad.FinalHints.CBNodes, n)
	}
}

func TestAdaptiveMetricsEmitted(t *testing.T) {
	cfg := adaptiveConfig()
	rep := mustRun(t, cfg)
	c := rep.Metrics.Counters
	// The prior may keep a dominated arm at zero assignments (its counter is
	// then never emitted), but the per-arm counters must still account for
	// every batch.
	var total int64
	for _, name := range []string{"adapt.assigned.mw", "adapt.assigned.ww-list", "adapt.assigned.ww-coll"} {
		total += c[name]
	}
	if total != int64(cfg.Workload.NumQueries) {
		t.Fatalf("assigned counters sum to %d, want %d", total, cfg.Workload.NumQueries)
	}
	if _, ok := rep.Metrics.Gauges["adapt.epochs"]; !ok {
		t.Fatal("adapt.epochs gauge missing")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Resilient = true },
		func(c *Config) { c.QueryGroups = 2; c.Procs = 8 },
		func(c *Config) { c.Adaptive.Strategies = []Strategy{WWList, WWList} },
		func(c *Config) { c.Adaptive.Strategies = []Strategy{Strategy(9)} },
		func(c *Config) { c.Adaptive.Gamma = 1.5 },
		func(c *Config) { c.Adaptive.Hysteresis = -1 },
	}
	for i, mut := range bad {
		cfg := adaptiveConfig()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad adaptive config %d accepted", i)
		}
	}
}

func TestConfigValidateRejectsBadHints(t *testing.T) {
	cfg := tinyConfig()
	cfg.CBNodes = -3
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative CBNodes accepted")
	}
}
