package core

import (
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
	"s3asim/internal/stats"
)

// tinyConfig is a fast configuration with real data capture enabled so the
// output file image is fully verified.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Procs = 5
	cfg.Workload.NumQueries = 3
	cfg.Workload.NumFragments = 8
	cfg.Workload.QueryHist = stats.Uniform(100, 500)
	cfg.Workload.DBSeqHist = stats.Uniform(100, 2000)
	cfg.Workload.MinResults = 10
	cfg.Workload.MaxResults = 20
	cfg.Workload.MinResultSize = 64
	cfg.Workload.Seed = 7
	cfg.CaptureData = true
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%v, sync=%v, procs=%d): %v",
			cfg.Strategy, cfg.QuerySync, cfg.Procs, err)
	}
	return rep
}

func TestAllStrategiesVerifyFileImage(t *testing.T) {
	for _, s := range Strategies {
		for _, qs := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.Strategy = s
			cfg.QuerySync = qs
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v sync=%v: image not verified", s, qs)
			}
			if rep.OverlappedBytes != 0 {
				t.Fatalf("%v sync=%v: overlapping writes", s, qs)
			}
			if rep.FileCoverage != rep.OutputBytes {
				t.Fatalf("%v sync=%v: coverage %d of %d bytes",
					s, qs, rep.FileCoverage, rep.OutputBytes)
			}
		}
	}
}

func TestStrategiesProduceIdenticalBytesAcrossProcCounts(t *testing.T) {
	// The paper: "Although we use different numbers of processors, the
	// results are always identical since they are pseudo-randomly
	// generated." Verified file images must match across strategies AND
	// process counts; output byte count is the workload's.
	var want int64
	for _, procs := range []int{2, 3, 7} {
		for _, s := range Strategies {
			cfg := tinyConfig()
			cfg.Procs = procs
			cfg.Strategy = s
			rep := mustRun(t, cfg)
			if want == 0 {
				want = rep.OutputBytes
			}
			if rep.OutputBytes != want || rep.FileCoverage != want {
				t.Fatalf("%v procs=%d: bytes %d/%d, want %d",
					s, procs, rep.OutputBytes, rep.FileCoverage, want)
			}
			if !rep.Verified {
				t.Fatalf("%v procs=%d: unverified", s, procs)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, s := range Strategies {
		cfg := tinyConfig()
		cfg.Strategy = s
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if a.Overall != b.Overall || a.Events != b.Events {
			t.Fatalf("%v: nondeterministic runs: (%v,%d) vs (%v,%d)",
				s, a.Overall, a.Events, b.Overall, b.Events)
		}
	}
}

func TestPhaseTimesSumToTotal(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = WWList
	rep := mustRun(t, cfg)
	check := func(pb ProcBreakdown) {
		var sum des.Time
		for _, p := range pb.Phases {
			sum += p
		}
		if sum != pb.Total {
			t.Fatalf("rank %d: phases sum %v != total %v", pb.Rank, sum, pb.Total)
		}
		if pb.Total > rep.Overall {
			t.Fatalf("rank %d: total %v exceeds overall %v", pb.Rank, pb.Total, rep.Overall)
		}
	}
	check(rep.Master)
	for _, w := range rep.Workers {
		check(w)
	}
}

func TestMasterNeverComputesOrMerges(t *testing.T) {
	// Paper §3: master Compute and Merge Results phases are always zero.
	for _, s := range Strategies {
		cfg := tinyConfig()
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		if rep.Master.Phases[PhaseCompute] != 0 {
			t.Fatalf("%v: master compute %v != 0", s, rep.Master.Phases[PhaseCompute])
		}
		if rep.Master.Phases[PhaseMerge] != 0 {
			t.Fatalf("%v: master merge %v != 0", s, rep.Master.Phases[PhaseMerge])
		}
	}
}

func TestOnlyMasterWritesUnderMW(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = MW
	rep := mustRun(t, cfg)
	if rep.Master.Phases[PhaseIO] == 0 {
		t.Fatal("MW: master I/O phase is zero")
	}
	for _, w := range rep.Workers {
		if w.Phases[PhaseIO] != 0 {
			t.Fatalf("MW: worker %d has I/O time %v", w.Rank, w.Phases[PhaseIO])
		}
	}
}

func TestWorkersWriteUnderWW(t *testing.T) {
	for _, s := range []Strategy{WWPosix, WWList, WWColl} {
		cfg := tinyConfig()
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		if rep.Master.Phases[PhaseIO] != 0 {
			t.Fatalf("%v: master has I/O time %v", s, rep.Master.Phases[PhaseIO])
		}
		var total des.Time
		for _, w := range rep.Workers {
			total += w.Phases[PhaseIO]
		}
		if total == 0 {
			t.Fatalf("%v: no worker I/O time", s)
		}
	}
}

func TestWorkersMergeOnlyUnderWW(t *testing.T) {
	// Algorithm 2 step 8 runs only when parallel I/O is used.
	for _, s := range Strategies {
		cfg := tinyConfig()
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		var merge des.Time
		for _, w := range rep.Workers {
			merge += w.Phases[PhaseMerge]
		}
		if s == MW && merge != 0 {
			t.Fatalf("MW: workers merged for %v", merge)
		}
		if s != MW && merge == 0 {
			t.Fatalf("%v: workers never merged", s)
		}
	}
}

func TestQuerySyncAddsSyncTime(t *testing.T) {
	for _, s := range []Strategy{WWPosix, WWList} {
		base := tinyConfig()
		base.Strategy = s
		noSync := mustRun(t, base)
		base.QuerySync = true
		withSync := mustRun(t, base)
		if withSync.Overall < noSync.Overall {
			t.Fatalf("%v: sync run (%v) faster than no-sync (%v)",
				s, withSync.Overall, noSync.Overall)
		}
	}
}

func TestQueriesPerWriteBatching(t *testing.T) {
	for _, s := range Strategies {
		for _, n := range []int{1, 2, 3} { // 3 queries: batches of 1, 2(+1), 3
			cfg := tinyConfig()
			cfg.Strategy = s
			cfg.QueriesPerWrite = n
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v n=%d: unverified", s, n)
			}
		}
	}
}

func TestWriteAtEndMatchesMpiBLAST12(t *testing.T) {
	// QueriesPerWrite = NumQueries reproduces the mpiBLAST-1.2/pioBLAST
	// write-at-end behaviour; there must be exactly one flush per run.
	cfg := tinyConfig()
	cfg.Strategy = MW
	cfg.QueriesPerWrite = cfg.Workload.NumQueries
	rep := mustRun(t, cfg)
	if !rep.Verified {
		t.Fatal("write-at-end: unverified")
	}
	// A single contiguous write covers everything: file-system requests
	// should be one per touched server, plus sync.
	perQuery := mustRun(t, func() Config {
		c := tinyConfig()
		c.Strategy = MW
		return c
	}())
	if rep.FS.TotalRequests >= perQuery.FS.TotalRequests {
		t.Fatalf("write-at-end requests %d not fewer than per-query %d",
			rep.FS.TotalRequests, perQuery.FS.TotalRequests)
	}
}

func TestSyncEveryWriteCostsTime(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = WWList
	with := mustRun(t, cfg)
	cfg.SyncEveryWrite = false
	without := mustRun(t, cfg)
	if without.Overall >= with.Overall {
		t.Fatalf("disabling file sync did not speed up the run: %v vs %v",
			without.Overall, with.Overall)
	}
	if without.FS.TotalSyncs != 0 {
		t.Fatalf("syncs issued with SyncEveryWrite off: %d", without.FS.TotalSyncs)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := func(mutate func(*Config)) {
		t.Helper()
		cfg := tinyConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatal("expected validation error")
		}
	}
	bad(func(c *Config) { c.Procs = 1 })
	bad(func(c *Config) { c.Workload.NumQueries = 0 })
	bad(func(c *Config) { c.QueriesPerWrite = 0 })
	bad(func(c *Config) { c.MergeBandwidth = 0 })
	bad(func(c *Config) { c.FormatBandwidth = -1 })
}

func TestStrategyParseRoundTrip(t *testing.T) {
	for _, s := range Strategies {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: %v %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestPhaseTimer(t *testing.T) {
	sim := des.New()
	var buckets [NumPhases]des.Time
	destest.Spawn(sim, "p", func(p *des.Proc) {
		pt := NewPhaseTimer(sim)
		pt.Switch(PhaseCompute)
		destest.Sleep(p, 5*des.Second)
		pt.Switch(PhaseIO)
		destest.Sleep(p, 3*des.Second)
		pt.Switch(PhaseIO) // no-op
		destest.Sleep(p, des.Second)
		pt.Finish()
		pt.Switch(PhaseSync) // after Finish: ignored
		buckets = pt.Buckets()
		if pt.Total() != 9*des.Second {
			t.Errorf("total = %v", pt.Total())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if buckets[PhaseCompute] != 5*des.Second || buckets[PhaseIO] != 4*des.Second {
		t.Fatalf("buckets = %v", buckets)
	}
	if buckets[PhaseSync] != 0 {
		t.Fatal("switch after Finish should not bill")
	}
}

func TestPhaseNamesMatchPaper(t *testing.T) {
	want := []string{"Setup", "Data Distribution", "Compute", "Merge Results",
		"Gather Results", "I/O", "Sync", "Other"}
	for i, w := range want {
		if Phase(i).String() != w {
			t.Fatalf("phase %d = %q, want %q", i, Phase(i), w)
		}
	}
}

func TestPhaseTableRenders(t *testing.T) {
	cfg := tinyConfig()
	rep := mustRun(t, cfg)
	tbl := rep.PhaseTable().String()
	for _, want := range []string{"master", "worker-avg", "datadist", "io"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("phase table missing %q:\n%s", want, tbl)
		}
	}
}

func TestOverrideIndMethodDataSieve(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = WWList
	cfg.OverrideIndMethod = true
	cfg.IndMethod = 2 // romio.DataSieve
	rep := mustRun(t, cfg)
	// Data sieving read-modify-writes whole windows: overlapping writes are
	// expected, which is exactly why ROMIO disables sieved writes on lock-
	// free PVFS2. The report must expose the hazard rather than hide it.
	if rep.OverlappedBytes == 0 {
		t.Fatal("sieved run reported no overlapping writes")
	}
	if rep.Verified {
		t.Fatal("sieved run must not claim content verification")
	}
}

func TestDisableMasterNICSerializationHelpsMW(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = MW
	cfg.Workload.MinResults = 100
	cfg.Workload.MaxResults = 150
	base := mustRun(t, cfg)
	cfg.DisableMasterNICSerialization = true
	fat := mustRun(t, cfg)
	if fat.Overall > base.Overall {
		t.Fatalf("uncontended master NIC slower: %v vs %v", fat.Overall, base.Overall)
	}
}

func TestCollectiveRunsUseFewerServerRequests(t *testing.T) {
	cfgList := tinyConfig()
	cfgList.Strategy = WWList
	list := mustRun(t, cfgList)
	cfgColl := tinyConfig()
	cfgColl.Strategy = WWColl
	coll := mustRun(t, cfgColl)
	// Aggregation coalesces adjacent results into runs, so the collective
	// run ships strictly fewer storage segments than per-worker list I/O.
	if coll.FS.TotalSegments >= list.FS.TotalSegments {
		t.Fatalf("two-phase aggregation should reduce storage segments: coll %d vs list %d",
			coll.FS.TotalSegments, list.FS.TotalSegments)
	}
}

func TestSingleWorker(t *testing.T) {
	for _, s := range Strategies {
		cfg := tinyConfig()
		cfg.Procs = 2
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		if !rep.Verified {
			t.Fatalf("%v with one worker: unverified", s)
		}
	}
}

func TestMoreWorkersThanTasks(t *testing.T) {
	cfg := tinyConfig()
	cfg.Procs = 30 // 29 workers, 24 tasks
	cfg.Workload.NumQueries = 3
	cfg.Workload.NumFragments = 8
	for _, s := range Strategies {
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		if !rep.Verified {
			t.Fatalf("%v oversubscribed workers: unverified", s)
		}
	}
}
