package core

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
	"s3asim/internal/stats"
)

// outputFile is the simulated results file name.
const outputFile = "s3asim.results"

// batch is a flush unit: QueriesPerWrite consecutive queries of one group.
type batch struct {
	LoQ, HiQ int // query index range [LoQ, HiQ)
	Region   int64
	Bytes    int64
}

// group is one master/worker tree. With QueryGroups == 1 (the paper's
// configuration) there is a single group holding every process and every
// query; with more groups the engine runs the paper's §5 "hybrid query
// segmentation/database segmentation" extension: the query set is split
// across groups, each group database-segments its share, and all groups
// share the file system and the output file.
type group struct {
	index      int
	masterRank int
	workers    []int // worker ranks, ascending
	loQ, hiQ   int   // query range [loQ, hiQ)
	batches    []batch

	batchBase int // global index of this group's first batch

	team      *mpi.Team    // master + workers: setup broadcast
	querySyn  *mpi.Barrier // this group's workers, per flushed batch
	collEntry *mpi.Barrier // gathering before each collective round
	collGroup *romio.Group // WW-Coll collective over this group's workers
}

// runtime carries everything the masters and workers share.
type runtime struct {
	cfg     *Config
	wl      *search.Workload
	sim     *des.Simulation
	world   *mpi.World
	fs      *pvfs.FileSystem
	file    *romio.File
	dbFile  *romio.File  // input database (when DatabaseBytes > 0)
	fileUp  *des.Signal  // broadcast once rt.file is open
	final   *mpi.Barrier // all processes, end of run
	groups  []*group
	timers  []*PhaseTimer
	metrics *obs.Registry

	flushTimes []des.Time // per global batch: when its flush completed

	// Telemetry-pipeline state (nil when Config.Telemetry is unset).
	flight *obs.FlightRecorder

	// Serving-mode state (nil for the paper's closed batch).
	serve *serveState

	// Adaptive-I/O state (nil when Config.Adaptive is unset).
	ad *adaptState

	// Verified-read-path state (nil when Config.Readback is unset).
	rb *readbackState

	// Resilient-protocol state (nil/zero for the original protocol).
	faults        *fault.Injector // fault oracle; non-nil iff cfg.resilient()
	runErr        error           // first unrecoverable failure (fail())
	groupShutdown []bool          // per group: master entered shutdown
	ended         int             // protocol actors that exited cleanly
}

// ProcBreakdown is one process's per-phase time decomposition.
type ProcBreakdown struct {
	Rank   int
	Phases [NumPhases]des.Time
	Total  des.Time
}

// Report is the outcome of one simulated S3aSim run.
type Report struct {
	Strategy     Strategy
	QuerySync    bool
	Procs        int
	ComputeSpeed float64
	QueryGroups  int

	Overall   des.Time // wall-clock of the whole application
	Master    ProcBreakdown
	Masters   []ProcBreakdown // all group masters (len == QueryGroups)
	Workers   []ProcBreakdown
	WorkerAvg ProcBreakdown // phase-wise mean over workers

	OutputBytes     int64 // workload result bytes
	FileCoverage    int64 // distinct bytes written
	OverlappedBytes int64
	Verified        bool // content verified (capture runs only)

	// Readback* summarize the verified read path (Config.Readback runs
	// only): reads issued through the read strategy, extents and bytes
	// compared against regenerated content, and extents whose content
	// diverged. A run with ReadbackMismatches > 0 also returns an error.
	ReadbackReads      int64
	ReadbackExtents    int64
	ReadbackBytes      int64
	ReadbackMismatches int64

	// BatchFlushTimes records, per flush batch (in global query order),
	// the virtual time its results were durably written — the resume
	// points the paper's frequent-write design buys.
	BatchFlushTimes []des.Time

	FS       pvfs.Stats
	Messages uint64
	NetBytes uint64
	Events   uint64

	// IOTrace holds per-request file-system records when Config.TraceIO
	// was set (see pvfs.AnalyzeTrace).
	IOTrace []pvfs.RequestRecord

	// Queries holds per-query lifecycle stamps for serving runs
	// (Config.Serve), indexed by query in arrival order. Nil otherwise.
	Queries []QueryStat

	// Metrics is the run's instrumentation snapshot: counters (des.events,
	// mpi.messages, pvfs.requests, ...), gauges, and virtual-time histograms
	// (per-rank phase durations, pvfs queue waits, per-server load). Always
	// populated; deterministic for a given config and workload.
	Metrics obs.Snapshot

	// Windows, Alerts, and FlightDumps are the telemetry pipeline's outputs
	// (Config.Telemetry runs only): the windowed time-series — which
	// conserves exactly against Metrics (obs.Series.Conserve) — the SLO
	// alert edge timeline, and any captured flight-recorder dumps (not yet
	// written anywhere; serialize with obs.FlightDump.WriteJSONL).
	Windows     *obs.Series
	Alerts      []obs.Alert
	FlightDumps []obs.FlightDump

	// Adaptive summarizes the closed-loop controller's decisions, per-arm
	// observations and attribution, switch count, and hint-search outcome —
	// present only with Config.Adaptive.
	Adaptive *AdaptiveReport

	// Attribution is the run's critical-path decomposition, present only
	// when Config.Causal was set: every nanosecond of Overall assigned to a
	// category (Attribution.Check() verifies the conservation invariant).
	Attribution *causal.Attribution
	// CausalTotals aggregates all recorded intervals across every process
	// by category (parallel work counted multiply) — the companion
	// "where did all processes spend time" view. Zero without Config.Causal.
	CausalTotals causal.Breakdown
}

// Run executes one S3aSim simulation and returns its report.
func Run(cfg Config) (*Report, error) {
	return RunWithWorkload(cfg, nil)
}

// RunWithWorkload is Run with a caller-supplied pre-generated workload,
// letting a sweep generate each distinct workload once (search.Cache) and
// share it across cells. wl must have been generated from
// cfg.EffectiveWorkload(); nil generates it here. Sharing one *Workload
// across concurrent runs is safe: the engine and the report path only read
// it (see search.Cache).
func RunWithWorkload(cfg Config, wl *search.Workload) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CaptureData {
		cfg.FS.CaptureData = true
	}
	if cfg.QueryGroups < 1 {
		cfg.QueryGroups = 1
	}
	cfg.Workload = cfg.EffectiveWorkload()
	if cfg.WorkerMemoryBytes <= 0 {
		cfg.WorkerMemoryBytes = 512 << 20
	}
	if wl == nil {
		wl = search.Generate(cfg.Workload)
	} else if wl.Spec.Key() != cfg.Workload.Key() {
		return nil, fmt.Errorf("core: supplied workload was generated from a different spec (%s vs %s)",
			wl.Spec.Key(), cfg.Workload.Key())
	}
	sim := cfg.Sim
	if sim == nil {
		sim = des.New()
	}
	sim.Reset()
	world := mpi.NewWorld(sim, cfg.Procs, cfg.Net)
	fs := pvfs.New(sim, cfg.FS)
	if cfg.TraceIO {
		fs.EnableRequestTrace()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fs.SetMetrics(reg)
	var flight *obs.FlightRecorder
	if tel := cfg.Telemetry; tel != nil {
		reg.EnableWindows(tel.Window, sim.Now)
		flight = tel.NewFlightRecorder()
		// Crash/restart points on the injector's timeline trigger dumps.
		flight.AutoTrigger("faults")
		cfg.Sink = obs.Multi(cfg.Sink, flight)
	}
	if cfg.Causal != nil {
		world.SetCausal(cfg.Causal)
		fs.SetCausal(cfg.Causal)
	}

	rt := &runtime{
		cfg:     &cfg,
		wl:      wl,
		sim:     sim,
		world:   world,
		fs:      fs,
		fileUp:  sim.NewSignal(),
		final:   world.NewBarrier(cfg.Procs),
		timers:  make([]*PhaseTimer, cfg.Procs),
		metrics: reg,
		flight:  flight,
	}
	rt.buildGroups()
	if cfg.Adaptive != nil {
		rt.ad = rt.newAdaptState()
	}
	if cfg.Readback != nil {
		rt.rb = &readbackState{conf: *cfg.Readback}
	}
	if cfg.TestWriteDropper != nil {
		fs.SetWriteDropper(cfg.TestWriteDropper)
	}
	if cfg.Serve != nil {
		rt.serve = newServeState(cfg.Serve)
		rt.serve.flushedB = make([]bool, len(rt.groups[0].batches))
	}
	if cfg.DisableMasterNICSerialization {
		for _, g := range rt.groups {
			world.UncontendNode(g.masterRank, 1024)
		}
	}

	// The fault layer and the resilient protocol are wired only when
	// requested: an empty plan without Resilient leaves every hook nil, so
	// such runs are bit-identical to builds without any fault code at all.
	// A serving run may carry a pure performance-fault plan (degrade,
	// outage, delay — validateServe rejects anything stronger) on the
	// original protocol: the injector is wired into the network and the
	// file system, but there is nothing to Arm and no recovery state.
	resilient := cfg.resilient()
	if resilient || !cfg.FaultPlan.IsEmpty() {
		inj := fault.NewInjector(sim, cfg.FaultPlan, reg, cfg.Sink)
		inj.SetTagPolicy(droppableTag, delayableTag)
		world.SetFaultModel(inj)
		fs.SetFaults(inj)
		for _, e := range inj.Outages() {
			fs.ScheduleOutage(e.Server, e.At, e.For)
		}
		if resilient {
			inj.Arm(world.WakeRank)
			rt.faults = inj
			rt.groupShutdown = make([]bool, len(rt.groups))
		}
	}

	for _, g := range rt.groups {
		g := g
		master := rt.master
		if resilient {
			master = rt.rmaster
		}
		world.Spawn(g.masterRank, fmt.Sprintf("master%d", g.index),
			func(r *mpi.Rank) { master(r, g) })
		// Workers run as pooled state machines: a blocked worker is one
		// struct, not a goroutine stack, so rank counts in the hundreds of
		// thousands fit in ordinary heaps. Masters keep goroutine form —
		// there is one per group and their protocol code stays readable
		// that way.
		for _, w := range g.workers {
			world.SpawnFSM(w, fmt.Sprintf("worker%d", w),
				&workerFSM{rt: rt, g: g, r: world.Rank(w), resilient: resilient})
		}
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("core: %s sync=%v procs=%d groups=%d: %w",
			cfg.Strategy, cfg.QuerySync, cfg.Procs, cfg.QueryGroups, err)
	}
	if rt.runErr != nil {
		return nil, rt.runErr
	}
	return rt.report()
}

// buildGroups splits processes and queries across QueryGroups groups:
// contiguous rank blocks (first rank of each block is its master) and
// contiguous query ranges, both balanced to within one unit.
func (rt *runtime) buildGroups() {
	cfg := rt.cfg
	G := cfg.QueryGroups
	rank := 0
	qlo := cfg.ResumeFromQuery
	numQueries := cfg.Workload.NumQueries - cfg.ResumeFromQuery
	var globalBatch int
	for gi := 0; gi < G; gi++ {
		size := cfg.Procs / G
		if gi < cfg.Procs%G {
			size++
		}
		nq := numQueries / G
		if gi < numQueries%G {
			nq++
		}
		g := &group{
			index:      gi,
			masterRank: rank,
			loQ:        qlo,
			hiQ:        qlo + nq,
			batchBase:  globalBatch,
			querySyn:   rt.world.NewBarrier(size - 1),
			collEntry:  rt.world.NewBarrier(size - 1),
		}
		for w := rank + 1; w < rank+size; w++ {
			g.workers = append(g.workers, w)
		}
		members := append([]int{g.masterRank}, g.workers...)
		g.team = rt.world.NewTeam(members)
		for lo := g.loQ; lo < g.hiQ; lo += cfg.QueriesPerWrite {
			hi := lo + cfg.QueriesPerWrite
			if hi > g.hiQ {
				hi = g.hiQ
			}
			b := batch{LoQ: lo, HiQ: hi, Region: rt.wl.Queries[lo].Region}
			for q := lo; q < hi; q++ {
				b.Bytes += rt.wl.Queries[q].Bytes
			}
			g.batches = append(g.batches, b)
			globalBatch++
		}
		rt.groups = append(rt.groups, g)
		rank += size
		qlo += nq
	}
	rt.flushTimes = make([]des.Time, globalBatch)
}

// openFile is called by every group master; the first creates the shared
// output file, the rest wait for it.
func (rt *runtime) openFile(r *mpi.Rank, g *group) {
	if g.index == 0 {
		hints := romio.Hints{
			CBNodes:         rt.cfg.CBNodes,
			CollWriteMethod: rt.cfg.CollMethod,
			IndWriteMethod:  rt.cfg.indMethod(),
		}
		rt.file = romio.Open(r.Proc(), rt.world, rt.fs, outputFile, hints)
		if rt.cfg.DatabaseBytes > 0 {
			rt.dbFile = romio.Open(r.Proc(), rt.world, rt.fs, "s3asim.database", hints)
		}
		rt.fileUp.Broadcast()
		return
	}
	for rt.file == nil {
		rt.fileUp.Wait(r.Proc())
	}
}

// mergeSleep advances r's clock by d and bills the span as
// merge/serialization work for causal attribution (result merging on master
// or worker, batch formatting before a write).
func (rt *runtime) mergeSleep(r *mpi.Rank, d des.Time) {
	if c := rt.cfg.Causal; c != nil {
		start := rt.sim.Now()
		r.Proc().Sleep(d)
		c.Busy(r.Proc().Name(), causal.CatMerge, start, rt.sim.Now())
		return
	}
	r.Proc().Sleep(d)
}

// totalWorkers counts worker processes across all groups.
func (rt *runtime) totalWorkers() int {
	n := 0
	for _, g := range rt.groups {
		n += len(g.workers)
	}
	return n
}

// report assembles the run outcome and verifies the output file.
func (rt *runtime) report() (*Report, error) {
	cfg := rt.cfg
	rep := &Report{
		Strategy:        cfg.Strategy,
		QuerySync:       cfg.QuerySync,
		Procs:           cfg.Procs,
		ComputeSpeed:    cfg.ComputeSpeed,
		QueryGroups:     cfg.QueryGroups,
		Overall:         rt.sim.Now(),
		OutputBytes:     rt.wl.TotalBytes,
		BatchFlushTimes: rt.flushTimes,
		FS:              rt.fs.Stats(),
		Messages:        rt.world.MessagesSent(),
		NetBytes:        rt.world.BytesSent(),
		Events:          rt.sim.Events(),
		IOTrace:         rt.fs.RequestTrace(),
	}
	if c := cfg.Causal; c != nil {
		rep.Attribution = c.CriticalPath(rep.Overall)
		rep.CausalTotals = c.Totals()
	}
	if rt.serve != nil {
		rep.Queries = rt.serveQueryStats()
		rt.serveEmitSpans(cfg.Sink)
	}
	if rt.ad != nil {
		rep.Adaptive = rt.adaptReport()
	}
	masters := map[int]bool{}
	for _, g := range rt.groups {
		masters[g.masterRank] = true
	}
	for rank, t := range rt.timers {
		if t == nil {
			return nil, fmt.Errorf("core: rank %d never reported timings", rank)
		}
		pb := ProcBreakdown{Rank: rank, Phases: t.Buckets(), Total: t.Total()}
		if masters[rank] {
			rep.Masters = append(rep.Masters, pb)
			if rank == 0 {
				rep.Master = pb
			}
		} else {
			rep.Workers = append(rep.Workers, pb)
		}
	}
	rt.recordMetrics(rep)
	n := des.Time(len(rep.Workers))
	for _, w := range rep.Workers {
		for p := 0; p < int(NumPhases); p++ {
			rep.WorkerAvg.Phases[p] += w.Phases[p]
		}
		rep.WorkerAvg.Total += w.Total
	}
	if n > 0 {
		for p := 0; p < int(NumPhases); p++ {
			rep.WorkerAvg.Phases[p] /= n
		}
		rep.WorkerAvg.Total /= n
	}

	f := rt.fs.Lookup(outputFile)
	if f == nil {
		return nil, fmt.Errorf("core: output file was never created")
	}
	if rb := rt.rb; rb != nil {
		rep.ReadbackReads = rb.reads
		rep.ReadbackExtents = rb.extents
		rep.ReadbackBytes = rb.bytes
		rep.ReadbackMismatches = rb.mismatches
		if rb.mismatches > 0 {
			return rep, fmt.Errorf("core: readback verification failed: %d of %d extents mismatched (%w)",
				rb.mismatches, rb.extents, rb.firstErr)
		}
	}
	rep.FileCoverage = f.Coverage()
	rep.OverlappedBytes = f.OverlappedBytes()
	// A resumed run only rewrites queries from ResumeFromQuery on.
	expected := rt.wl.TotalBytes - rt.wl.Queries[cfg.ResumeFromQuery].Region
	if rep.FileCoverage < expected {
		return rep, fmt.Errorf("core: file coverage %d != expected bytes %d",
			rep.FileCoverage, expected)
	}
	// Data-sieving writes read-modify-write whole windows, so they overlap
	// by construction — and without locking (PVFS2 has none, §3.1) they are
	// unsafe under concurrent writers. The report carries the overlap count
	// instead of failing; this is exactly why ROMIO disables sieved writes
	// on PVFS2.
	sieving := cfg.indMethod() == romio.DataSieve &&
		(cfg.Strategy.WorkerWriting() && rt.ad == nil || rt.adaptWorkerWrites())
	if !sieving {
		if rep.OverlappedBytes != 0 {
			return rep, fmt.Errorf("core: %d bytes written more than once", rep.OverlappedBytes)
		}
		if cfg.CaptureData {
			if err := rt.verifyImage(f); err != nil {
				return rep, err
			}
			rep.Verified = true
		}
	}
	return rep, nil
}

// recordMetrics folds the run's end-of-run aggregates into the registry —
// kernel/network totals, per-rank phase durations and message counts, and
// per-server load — then snapshots the whole registry (including the pvfs
// per-request streams recorded during the run) into the report. Iteration
// is in fixed rank/server/phase order, so the snapshot is deterministic.
func (rt *runtime) recordMetrics(rep *Report) {
	m := rt.metrics
	m.Add("des.events", int64(rep.Events))
	m.Add("mpi.messages", int64(rep.Messages))
	m.Add("mpi.bytes", int64(rep.NetBytes))
	m.Set("run.overall_s", rep.Overall.Seconds())
	for rank, t := range rt.timers {
		b := t.Buckets()
		for p := Phase(0); p < NumPhases; p++ {
			m.ObserveTime("phase."+p.String(), b[p])
		}
		r := rt.world.Rank(rank)
		m.Observe("mpi.rank_messages", float64(r.MessagesSent()))
		m.Observe("mpi.rank_bytes", float64(r.BytesSent()))
	}
	for _, s := range rep.FS.Servers {
		m.Observe("pvfs.server_bytes", float64(s.BytesWritten))
		m.ObserveTime("pvfs.server_queue_wait", s.QueueWait)
	}
	if rt.serve != nil {
		rt.serveRecordMetrics()
	}
	if ad := rt.ad; ad != nil {
		m.Set("adapt.epochs", float64(ad.ctrl.EpochID()))
		if ad.ctrl.Converged() {
			m.Set("adapt.converged", 1)
		} else {
			m.Set("adapt.converged", 0)
		}
	}
	if rb := rt.rb; rb != nil {
		m.Add("readback.reads", rb.reads)
		m.Add("readback.extents", rb.extents)
		m.Add("readback.bytes", rb.bytes)
		m.Add("readback.mismatches", rb.mismatches)
	}
	if tel := rt.cfg.Telemetry; tel != nil {
		// Seal the series at the run's end, evaluate the alert rules over
		// the window boundaries (fire edges also trigger the flight
		// recorder), and snapshot the dumps. All inputs are virtual-time
		// facts, so the outputs are as deterministic as the report itself.
		m.FreezeWindows(rep.Overall)
		rep.Windows = m.Windows()
		if eng, err := tel.NewEngine(); err == nil && eng != nil {
			rep.Alerts = eng.Evaluate(rep.Windows, rt.cfg.Sink, rt.flight)
		}
		rep.FlightDumps = rt.flight.Dumps()
	}
	rep.Metrics = m.Snapshot()
}

// verifyImage checks, in place, that every result's bytes are stored and
// hold the content of their own offset — the cross-strategy file-image
// invariant.
func (rt *runtime) verifyImage(f *pvfs.File) error {
	for q := rt.cfg.ResumeFromQuery; q < len(rt.wl.Queries); q++ {
		for _, r := range rt.wl.Queries[q].Results {
			if !f.Placed(r.Offset, r.Size) {
				return fmt.Errorf("core: query %d result %d content mismatch at offset %d",
					q, r.Index, r.Offset)
			}
		}
	}
	return nil
}

// PhaseTable renders the worker-average phase decomposition (the quantity
// the paper's per-phase figures plot) plus the master's, as a table.
func (rep *Report) PhaseTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("%s %s, %d procs, speed %g — phase breakdown (seconds)",
			rep.Strategy, syncLabel(rep.QuerySync), rep.Procs, rep.ComputeSpeed),
		"process", "setup", "datadist", "compute", "merge", "gather", "io", "sync", "other", "total")
	row := func(name string, pb ProcBreakdown) {
		t.AddRowf(name,
			pb.Phases[PhaseSetup].Seconds(), pb.Phases[PhaseDataDist].Seconds(),
			pb.Phases[PhaseCompute].Seconds(), pb.Phases[PhaseMerge].Seconds(),
			pb.Phases[PhaseGather].Seconds(), pb.Phases[PhaseIO].Seconds(),
			pb.Phases[PhaseSync].Seconds(), pb.Phases[PhaseOther].Seconds(),
			pb.Total.Seconds())
	}
	row("master", rep.Master)
	row("worker-avg", rep.WorkerAvg)
	return t
}

func syncLabel(sync bool) string {
	if sync {
		return "sync"
	}
	return "no-sync"
}
