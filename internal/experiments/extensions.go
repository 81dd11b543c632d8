package experiments

import (
	"fmt"
	"runtime"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/romio"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// This file implements the paper's §5 future-work studies as first-class
// experiments: the improved collective built from list I/O plus forced
// synchronization, hybrid query/database segmentation, the
// write-frequency/failure-recovery trade-off, and sensitivity sweeps over
// the file-system configuration ("a larger file system configuration with
// more I/O bandwidth may have provided more scalable I/O performance", §4).
//
// Like the figure suites, every study shares one workload cache across its
// runs and fans independent sweep points out across a bounded pool; rows
// are collected in deterministic sweep order regardless of completion
// order. Each function takes an optional trailing parallelism (default
// GOMAXPROCS; 1 runs sequentially).

// extExec bundles the shared workload cache and pool width of one study.
type extExec struct {
	cache *search.Cache
	par   int
}

func newExtExec(base *core.Config, parallelism []int) extExec {
	par := 0
	if len(parallelism) > 0 {
		par = parallelism[0]
	}
	if base.Sink != nil {
		par = 1 // the sink is shared mutable state
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return extExec{cache: search.NewCache(), par: par}
}

// run executes one simulation against the study's shared workload cache.
func (e extExec) run(cfg core.Config) (*core.Report, error) {
	return core.RunWithWorkload(cfg, e.cache.Get(cfg.EffectiveWorkload()))
}

// CollectiveComparison runs WW-Coll with both collective implementations
// (ROMIO two-phase vs list I/O + forced sync) and WW-List with query sync,
// at the given process counts.
func CollectiveComparison(base core.Config, procs []int, parallelism ...int) (*stats.Table, error) {
	e := newExtExec(&base, parallelism)
	rows := make([][3]float64, len(procs))
	err := forEach(e.par, len(procs), func(i int) error {
		cfg := base
		cfg.Procs = procs[i]
		cfg.Strategy = core.WWColl
		cfg.CollMethod = romio.TwoPhase
		twoPhase, err := e.run(cfg)
		if err != nil {
			return err
		}
		cfg.CollMethod = romio.ListSync
		listColl, err := e.run(cfg)
		if err != nil {
			return err
		}
		cfg.Strategy = core.WWList
		cfg.CollMethod = romio.TwoPhase
		cfg.QuerySync = true
		listSync, err := e.run(cfg)
		if err != nil {
			return err
		}
		rows[i] = [3]float64{twoPhase.Overall.Seconds(),
			listColl.Overall.Seconds(), listSync.Overall.Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"§5 — collective I/O implementations (overall seconds)",
		"processes", "two-phase", "list-sync collective", "WW-List + query sync")
	for i, p := range procs {
		t.AddRowf(p, rows[i][0], rows[i][1], rows[i][2])
	}
	return t, nil
}

// HybridComparison runs the hybrid query/database segmentation extension:
// the same workload and process count split into 1, 2, 4, ... groups.
func HybridComparison(base core.Config, groups []int, parallelism ...int) (*stats.Table, error) {
	e := newExtExec(&base, parallelism)
	rows := make([][2]float64, len(groups))
	err := forEach(e.par, len(groups), func(i int) error {
		cfg := base
		cfg.QueryGroups = groups[i]
		rep, err := e.run(cfg)
		if err != nil {
			return err
		}
		var maxMaster des.Time
		for _, m := range rep.Masters {
			busy := m.Total - m.Phases[core.PhaseDataDist] - m.Phases[core.PhaseSync]
			if busy > maxMaster {
				maxMaster = busy
			}
		}
		rows[i] = [2]float64{rep.Overall.Seconds(), maxMaster.Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§5 — hybrid segmentation, %s at %d procs (overall seconds)",
			base.Strategy, base.Procs),
		"query-groups", "overall (s)", "master-busy max (s)")
	for i, g := range groups {
		t.AddRowf(g, rows[i][0], rows[i][1])
	}
	return t, nil
}

// ResumeOutcome is one row of the write-frequency/failure trade-off.
type ResumeOutcome struct {
	QueriesPerWrite int
	NoFailure       des.Time // clean run
	FailAt          des.Time // injected failure time
	ResumeFrom      int      // first query not durable at the failure
	ResumeRun       des.Time // duration of the restarted run
	TotalWithFail   des.Time // FailAt + ResumeRun
}

// ResumeTradeoff quantifies what frequent writes buy (§2: resumability):
// for each write granularity, a failure is injected at failFrac of the
// clean run's duration; work not yet durably flushed is lost and a resume
// run re-processes it. Returns one outcome per granularity. Granularities
// run concurrently (each one's resume run still depends on its clean run).
func ResumeTradeoff(base core.Config, granularities []int, failFrac float64, parallelism ...int) ([]ResumeOutcome, error) {
	e := newExtExec(&base, parallelism)
	out := make([]ResumeOutcome, len(granularities))
	err := forEach(e.par, len(granularities), func(i int) error {
		cfg := base
		cfg.QueriesPerWrite = granularities[i]
		clean, err := e.run(cfg)
		if err != nil {
			return err
		}
		failAt := des.Time(failFrac * float64(clean.Overall))
		// A resume can only start after the longest prefix of batches whose
		// writes were durably complete at the failure instant.
		resumeFrom := 0
		for bi, ft := range clean.BatchFlushTimes {
			if ft <= 0 || ft > failAt {
				break
			}
			// Batch bi covers queries [bi*n, min((bi+1)*n, Q)).
			hi := (bi + 1) * granularities[i]
			if hi > cfg.Workload.NumQueries {
				hi = cfg.Workload.NumQueries
			}
			resumeFrom = hi
		}
		oc := ResumeOutcome{
			QueriesPerWrite: granularities[i],
			NoFailure:       clean.Overall,
			FailAt:          failAt,
			ResumeFrom:      resumeFrom,
		}
		if resumeFrom >= cfg.Workload.NumQueries {
			oc.ResumeRun = 0 // everything was already durable
		} else {
			rcfg := cfg
			rcfg.ResumeFromQuery = resumeFrom
			resumed, err := e.run(rcfg)
			if err != nil {
				return err
			}
			oc.ResumeRun = resumed.Overall
		}
		oc.TotalWithFail = oc.FailAt + oc.ResumeRun
		out[i] = oc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResumeTable renders resume outcomes.
func ResumeTable(outcomes []ResumeOutcome) *stats.Table {
	t := stats.NewTable(
		"§2 — write frequency vs failure recovery (failure mid-run)",
		"queries/write", "clean run (s)", "durable queries", "resume run (s)", "total with failure (s)")
	for _, oc := range outcomes {
		t.AddRowf(oc.QueriesPerWrite, oc.NoFailure.Seconds(), oc.ResumeFrom,
			oc.ResumeRun.Seconds(), oc.TotalWithFail.Seconds())
	}
	return t
}

// ServerSweep varies the number of PVFS2 I/O servers at fixed process
// count (§4: "a larger file system configuration with more I/O bandwidth
// may have provided more scalable I/O performance").
func ServerSweep(base core.Config, servers []int, parallelism ...int) (*stats.Table, error) {
	e := newExtExec(&base, parallelism)
	rows := make([][2]float64, len(servers))
	err := forEach(e.par, len(servers), func(i int) error {
		cfg := base
		cfg.FS.NumServers = servers[i]
		rep, err := e.run(cfg)
		if err != nil {
			return err
		}
		rows[i] = [2]float64{rep.Overall.Seconds(),
			rep.WorkerAvg.Phases[core.PhaseIO].Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§4 — I/O server scaling, %s at %d procs", base.Strategy, base.Procs),
		"servers", "overall (s)", "worker I/O phase (s)")
	for i, n := range servers {
		t.AddRowf(n, rows[i][0], rows[i][1])
	}
	return t, nil
}

// SegmentationComparison quantifies §1's motivation for database
// segmentation: it runs the same workload under database segmentation and
// under the query-segmentation baseline while growing the database, with
// worker memory fixed. Once the replicated database no longer fits in
// memory, query segmentation pays its per-query re-read.
func SegmentationComparison(base core.Config, dbSizes []int64, parallelism ...int) (*stats.Table, error) {
	e := newExtExec(&base, parallelism)
	rows := make([][2]float64, len(dbSizes))
	err := forEach(e.par, len(dbSizes), func(i int) error {
		cfg := base
		cfg.DatabaseBytes = dbSizes[i]
		cfg.Segmentation = core.DatabaseSeg
		dbRep, err := e.run(cfg)
		if err != nil {
			return err
		}
		cfg.Segmentation = core.QuerySeg
		qRep, err := e.run(cfg)
		if err != nil {
			return err
		}
		rows[i] = [2]float64{dbRep.Overall.Seconds(), qRep.Overall.Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§1 — database vs query segmentation at %d procs (worker memory %d MB)",
			base.Procs, base.WorkerMemoryBytes>>20),
		"database (MB)", "database-seg (s)", "query-seg (s)")
	for i, db := range dbSizes {
		t.AddRowf(db>>20, rows[i][0], rows[i][1])
	}
	return t, nil
}

// OutputScaleSweep varies the result volume by scaling the per-query result
// count (§5: "different I/O characteristics ... amount of results").
func OutputScaleSweep(base core.Config, multipliers []float64, parallelism ...int) (*stats.Table, error) {
	e := newExtExec(&base, parallelism)
	rows := make([][3]float64, len(multipliers))
	err := forEach(e.par, len(multipliers), func(i int) error {
		cfg := base
		cfg.Workload.MinResults = int(float64(base.Workload.MinResults) * multipliers[i])
		cfg.Workload.MaxResults = int(float64(base.Workload.MaxResults) * multipliers[i])
		if cfg.Workload.MinResults < 1 {
			cfg.Workload.MinResults = 1
		}
		if cfg.Workload.MaxResults < cfg.Workload.MinResults {
			cfg.Workload.MaxResults = cfg.Workload.MinResults
		}
		rep, err := e.run(cfg)
		if err != nil {
			return err
		}
		rows[i] = [3]float64{float64(rep.OutputBytes) / 1e6,
			rep.Overall.Seconds(), rep.WorkerAvg.Phases[core.PhaseIO].Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§5 — output volume scaling, %s at %d procs", base.Strategy, base.Procs),
		"result-count x", "output (MB)", "overall (s)", "worker I/O phase (s)")
	for i, m := range multipliers {
		t.AddRowf(m, rows[i][0], rows[i][1], rows[i][2])
	}
	return t, nil
}
