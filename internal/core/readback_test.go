package core

import (
	"strings"
	"testing"

	"s3asim/internal/fault"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// readbackConfig is tinyConfig with the verified read path enabled:
// one in-run readback per flushed batch plus the post-run sweep.
func readbackConfig(s Strategy, m romio.Method) Config {
	cfg := tinyConfig()
	cfg.Strategy = s
	cfg.Readback = &ReadbackConfig{Method: m, InRunReads: 1, PostRun: true}
	return cfg
}

func TestReadbackAllStrategiesAndMethods(t *testing.T) {
	for _, s := range Strategies {
		for _, m := range []romio.Method{romio.Posix, romio.ListIO, romio.DataSieve} {
			cfg := readbackConfig(s, m)
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v/%v: image not verified", s, m)
			}
			if rep.ReadbackMismatches != 0 {
				t.Fatalf("%v/%v: %d readback mismatches", s, m, rep.ReadbackMismatches)
			}
			if rep.ReadbackReads == 0 || rep.ReadbackExtents == 0 || rep.ReadbackBytes == 0 {
				t.Fatalf("%v/%v: no readback activity: reads=%d extents=%d bytes=%d",
					s, m, rep.ReadbackReads, rep.ReadbackExtents, rep.ReadbackBytes)
			}
			// Post-run reads every result extent exactly once, so the bytes
			// read back must be at least one full pass over the output.
			if rep.ReadbackBytes < rep.OutputBytes {
				t.Fatalf("%v/%v: read back %d bytes < output %d",
					s, m, rep.ReadbackBytes, rep.OutputBytes)
			}
		}
	}
}

func TestReadbackCollective(t *testing.T) {
	for _, cm := range []romio.CollMethod{romio.TwoPhase, romio.ListSync} {
		cfg := readbackConfig(WWColl, romio.ListIO)
		cfg.CollMethod = cm
		cfg.Readback.Collective = true
		rep := mustRun(t, cfg)
		if rep.ReadbackMismatches != 0 || rep.ReadbackReads == 0 {
			t.Fatalf("%v: mismatches=%d reads=%d",
				cm, rep.ReadbackMismatches, rep.ReadbackReads)
		}
	}
}

// TestReadbackDetectsSilentWriteDrop pins the reason the read path exists:
// a write acknowledged by the file system but silently zeroed keeps every
// offset-level invariant (coverage, size, no overlap) and is caught only by
// content verification.
func TestReadbackDetectsSilentWriteDrop(t *testing.T) {
	for _, s := range Strategies {
		cfg := readbackConfig(s, romio.Posix)
		dropped := false
		cfg.TestWriteDropper = func(off, n int64) bool {
			if dropped || n == 0 {
				return false
			}
			dropped = true
			return true
		}
		rep, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "readback verification failed") {
			t.Fatalf("%v: silent drop not detected, err=%v", s, err)
		}
		if rep == nil || rep.ReadbackMismatches == 0 {
			t.Fatalf("%v: report carries no mismatches", s)
		}
		// Offset bookkeeping must NOT have noticed: the drop is silent.
		if !dropped {
			t.Fatalf("%v: dropper never fired", s)
		}
	}
}

// TestReadbackDetectsUnalignedDropInsideSegment drops one write piece that
// starts at a file offset that is not 8-aligned, strictly inside a
// coalesced worker segment: with a single worker every batch is one
// segment, and an odd strip size cuts it into pieces at unaligned strip
// boundaries. Every read method must catch the zeroed range.
func TestReadbackDetectsUnalignedDropInsideSegment(t *testing.T) {
	for _, m := range []romio.Method{romio.Posix, romio.ListIO, romio.DataSieve} {
		cfg := readbackConfig(WWList, m)
		cfg.Procs = 2 // one worker: each batch is written as one coalesced segment
		cfg.FS.StripSize = 1001
		wl := search.Generate(cfg.Workload)
		starts := map[int64]bool{}
		for _, q := range wl.Queries {
			starts[q.Region] = true
		}
		var droppedAt int64 = -1
		cfg.TestWriteDropper = func(off, n int64) bool {
			if droppedAt >= 0 || off%8 == 0 || off%cfg.FS.StripSize != 0 || starts[off] {
				return false
			}
			droppedAt = off
			return true
		}
		rep, err := Run(cfg)
		if droppedAt < 0 {
			t.Fatalf("%v: dropper never fired", m)
		}
		if err == nil || !strings.Contains(err.Error(), "readback verification failed") {
			t.Fatalf("%v: drop at %d not detected, err=%v", m, droppedAt, err)
		}
		if rep == nil || rep.ReadbackMismatches == 0 {
			t.Fatalf("%v: report carries no mismatches", m)
		}
	}
}

// TestReadbackResumedRunClean pins a resumed run (ResumeFromQuery > 0):
// only the rewritten queries are read back and verified, cleanly, under
// every strategy.
func TestReadbackResumedRunClean(t *testing.T) {
	for _, s := range Strategies {
		cfg := readbackConfig(s, romio.ListIO)
		cfg.ResumeFromQuery = 1
		rep := mustRun(t, cfg)
		if !rep.Verified || rep.ReadbackMismatches != 0 || rep.ReadbackExtents == 0 {
			t.Fatalf("%v: verified=%v mismatches=%d extents=%d",
				s, rep.Verified, rep.ReadbackMismatches, rep.ReadbackExtents)
		}
	}
}

// TestReadbackResilient runs the verified read path under the recovery
// protocol with worker crashes: exactly-once replay must leave zero content
// mismatches.
func TestReadbackResilient(t *testing.T) {
	plan, err := fault.Parse("crash@3ms:rank=2,restart=10ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies {
		cfg := readbackConfig(s, romio.ListIO)
		cfg.Resilient = true
		cfg.FaultPlan = plan
		rep := mustRun(t, cfg)
		if rep.ReadbackMismatches != 0 || rep.ReadbackReads == 0 {
			t.Fatalf("%v: resilient readback mismatches=%d reads=%d",
				s, rep.ReadbackMismatches, rep.ReadbackReads)
		}
		if !rep.Verified {
			t.Fatalf("%v: image not verified", s)
		}
	}
}

// TestReadbackOffIsBitIdentical pins the nil gate: a Config without Readback
// must produce byte-identical event streams whether or not this build knows
// how to read — guarded here by comparing against a second plain run (the
// golden files pin the absolute history).
func TestReadbackValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no capture", func(c *Config) { c.CaptureData = false }, "CaptureData"},
		{"negative reads", func(c *Config) { c.Readback.InRunReads = -1 }, "non-negative"},
		{"no mode", func(c *Config) { c.Readback.InRunReads = 0; c.Readback.PostRun = false }, "neither"},
		{"bad method", func(c *Config) { c.Readback.Method = romio.Method(99) }, "unknown readback method"},
		{"collective without WWColl", func(c *Config) { c.Strategy = MW; c.Readback.Collective = true }, "WW-Coll"},
		{"collective resilient", func(c *Config) {
			c.Strategy = WWColl
			c.Readback.Collective = true
			c.Resilient = true
		}, "resilient"},
	}
	for _, c := range cases {
		cfg := readbackConfig(WWList, romio.Posix)
		c.mut(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestReadPhaseFaultRequiresReadback pins the fault-plan gate end to end: a
// plan declaring phase=read is rejected unless the run configures readback.
func TestReadPhaseFaultRequiresReadback(t *testing.T) {
	plan, err := fault.Parse("outage@2ms:server=0,for=1ms,phase=read")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.FaultPlan = plan
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "phase=read") {
		t.Fatalf("read-phase fault without readback accepted: %v", err)
	}
	cfg = readbackConfig(WWList, romio.Posix)
	cfg.Resilient = true
	cfg.FaultPlan = plan
	rep := mustRun(t, cfg)
	if rep.ReadbackMismatches != 0 {
		t.Fatalf("readback under read-phase outage: %d mismatches", rep.ReadbackMismatches)
	}
}
