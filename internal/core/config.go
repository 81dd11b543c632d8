package core

import (
	"errors"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// Segmentation selects the parallelization scheme (paper §1).
type Segmentation int

const (
	// DatabaseSeg is the paper's subject: the database is partitioned into
	// fragments, every worker searches whole queries against fragments.
	DatabaseSeg Segmentation = iota
	// QuerySeg is the §1 baseline: the database is replicated to every
	// worker and the query set is partitioned. Each worker searches whole
	// queries against the whole database; when the database exceeds worker
	// memory, the overflow is re-read from the file system for every query
	// — the "repeated I/O" §1 identifies.
	QuerySeg
)

// String names the segmentation scheme.
func (s Segmentation) String() string {
	if s == QuerySeg {
		return "query-seg"
	}
	return "database-seg"
}

// Config is a complete S3aSim run description: the workload, the machine
// models, the I/O strategy, and the paper's run options.
type Config struct {
	// Procs is the total MPI process count (1 master + Procs-1 workers).
	Procs int
	// Strategy selects the result I/O algorithm.
	Strategy Strategy
	// QuerySync forces all workers to synchronize after each batch's I/O
	// (the paper's "query sync" option used to expose collective I/O's
	// inherent synchronization).
	QuerySync bool
	// ComputeSpeed scales the linear part of the search-time model;
	// 1 is the base speed, larger is faster hardware/algorithms (§4).
	ComputeSpeed float64
	// QueryGroups enables the paper's §5 "hybrid query segmentation /
	// database segmentation" extension: the process set is split into this
	// many master/worker groups, each handling a contiguous share of the
	// query set with database segmentation, all sharing the file system and
	// the output file. 0 or 1 is the paper's pure database segmentation.
	QueryGroups int
	// QueriesPerWrite flushes results after every n completed queries
	// (paper §2: "after every n queries"); 1 writes per query (the paper's
	// test setup), NumQueries writes everything at the end (mpiBLAST 1.2 /
	// pioBLAST behaviour).
	QueriesPerWrite int
	// SyncEveryWrite issues MPI_File_sync after every write, as the paper's
	// tests always did.
	SyncEveryWrite bool
	// ResumeFromQuery restarts a failed run at the given input query — the
	// recovery mechanism frequent writes buy ("more frequently writing out
	// the results also allows users to resume a failed application run at
	// the appropriate input query", §2). Queries before it are assumed
	// already durable in the output file from the failed run.
	ResumeFromQuery int

	// Workload and Compute define the simulated search.
	Workload search.Spec
	Compute  search.ComputeModel

	// Segmentation selects database segmentation (the paper's subject,
	// default) or the query-segmentation baseline of §1. Under QuerySeg
	// the fragment count is forced to 1 (a task is a whole query).
	Segmentation Segmentation
	// DatabaseBytes, when positive, models input I/O: the sequence
	// database lives on the parallel file system and must be loaded before
	// searching. Under DatabaseSeg each worker loads its share once; under
	// QuerySeg each worker loads the full database and re-reads the part
	// exceeding WorkerMemoryBytes for every query (§1's repeated I/O).
	DatabaseBytes int64
	// WorkerMemoryBytes caps how much database a worker can cache
	// (default 512 MB — half of a Feynman node's 1 GB shared by 2 procs).
	WorkerMemoryBytes int64

	// Net and FS are the interconnect and file-system models.
	Net mpi.NetConfig
	FS  pvfs.Config

	// MergeBandwidth models merge throughput (bytes/second): the master
	// merging arriving result lists into its sorted list (full result bytes
	// under MW, score entries otherwise), and workers merging their local
	// per-query results when they write themselves.
	MergeBandwidth float64
	// FormatBandwidth models result serialization before writing (BLAST
	// output formatting — the documented master-side bottleneck in
	// mpiBLAST/pioBLAST). The writing process pays bytes/FormatBandwidth
	// before each write: the master under MW, each worker under WW.
	FormatBandwidth float64
	// ScoreEntryBytes is the wire/merge size of one score entry.
	ScoreEntryBytes int64

	// OverrideIndMethod forces the individual-write ADIO method instead of
	// the strategy default (WW-POSIX→posix, WW-List→list); used by the
	// data-sieving ablation.
	OverrideIndMethod bool
	IndMethod         romio.Method
	// CBNodes caps two-phase aggregators (0 = all workers).
	CBNodes int
	// CollMethod selects the collective-write implementation for WW-Coll:
	// romio.TwoPhase (ROMIO default, as in the paper's experiments) or
	// romio.ListSync (the improved collective the paper's conclusion
	// proposes).
	CollMethod romio.CollMethod

	// CaptureData stores content descriptors (which part of the content
	// stream each byte range holds, never the bytes) in the simulated file
	// system so the output image can be verified.
	CaptureData bool

	// Readback, if non-nil, enables the verified read path (DESIGN.md §14):
	// in-run and/or post-run verifiers read committed extents back through a
	// real read strategy and check that every byte read holds the content
	// of its own file offset. Requires CaptureData. Nil issues no reads and is
	// bit-identical to builds without the readback code.
	Readback *ReadbackConfig

	// TestWriteDropper, when non-nil, is installed in the simulated file
	// system as a silent write-corruption hook (pvfs.SetWriteDropper): any
	// write segment it selects is acknowledged and fully accounted but its
	// payload is discarded. Tests use it to prove the readback verifier
	// detects real data loss; leave nil otherwise.
	TestWriteDropper func(off, n int64) bool

	// DisableMasterNICSerialization gives the master's node infinitely
	// parallel NICs — an ablation isolating how much of MW's cost is
	// receive-side serialization at the master.
	DisableMasterNICSerialization bool

	// Sink, if non-nil, receives every process's phase-timeline event as it
	// happens (the MPE/Jumpshot-style instrumentation of paper §3). Use an
	// in-memory *trace.Tracer (render with trace.Gantt or cmd/s3atrace),
	// obs.NewStreamSink for JSONL spooling, obs.NewPerfettoSink for Chrome
	// trace-event export, or obs.Multi to fan out to several. Never store a
	// nil *trace.Tracer here: the interface would be non-nil and panic on
	// use.
	Sink obs.Sink
	// Metrics, if non-nil, is the registry the run populates with counters,
	// gauges, and virtual-time histograms (engine phases, pvfs requests, MPI
	// traffic). When nil the run uses a private registry; either way the
	// final snapshot lands in Report.Metrics. Supply a registry to
	// accumulate across several runs or to observe values mid-run.
	Metrics *obs.Registry
	// Causal, if non-nil, records happens-before structure (MPI waits and
	// message edges, barrier fan-in, PVFS request pipelines, compute and
	// merge intervals) for critical-path attribution; the result lands in
	// Report.Attribution. The recorder is purely passive: a run with one
	// attached is event-for-event identical to the same run without.
	Causal *causal.Recorder
	// TraceIO records every file-system server request; the trace appears
	// in Report.IOTrace for analysis (cmd/s3aiostat, pvfs.AnalyzeTrace).
	TraceIO bool

	// Sim, if non-nil, is the simulation kernel to run on: it is Reset()
	// before use, so its calendar storage and process/waiter pools carry
	// over from earlier runs. Sweeps reuse one kernel per executor slot this
	// way instead of reallocating per cell; a reset kernel is observably
	// identical to a fresh one, so results do not depend on whether (or
	// which) kernel is supplied. When nil the run builds its own. The caller
	// must not share one kernel across concurrent runs.
	Sim *des.Simulation

	// FaultPlan, when non-empty, injects the scheduled faults (see
	// internal/fault) and switches the engine to the resilient master/worker
	// protocol of DESIGN.md §9. A nil or empty plan with Resilient unset
	// runs the original protocol and is bit-identical to a run without any
	// fault layer at all.
	FaultPlan *fault.Plan
	// Resilient forces the recovery protocol even with an empty plan — the
	// chaos suite uses this for its fault-free baselines so inflation is
	// measured against the same protocol.
	Resilient bool
	// LeaseTimeout bounds how long the master waits (virtual time) for a
	// task's score, or for a sent batch's write acknowledgement, before
	// assuming it lost and re-dispatching. 0 picks max(2s, 8×DetectInterval).
	LeaseTimeout des.Time
	// DetectInterval is the master failure-detector sweep period; detection
	// latency for a crashed worker is bounded by it. 0 picks 250ms.
	DetectInterval des.Time
	// MaxTaskRetries bounds how many times one (query, fragment) task may be
	// re-dispatched after losses before the run aborts as unrecoverable.
	// 0 picks 3.
	MaxTaskRetries int

	// Serve, if non-nil, switches the run into the open-loop serving
	// scenario (DESIGN.md §13): queries arrive over virtual time per the
	// plan's schedule, the master admits and queues them (FIFO or SJF), and
	// per-query lifecycle stamps land in Report.Queries. Requires a single
	// query group, QueriesPerWrite == 1, no resume, and the non-resilient
	// protocol. Nil runs the paper's closed batch, byte-identically to
	// builds without serving code.
	Serve *ServePlan

	// Telemetry, if non-nil, enables the virtual-time telemetry pipeline
	// (DESIGN.md §15): the metrics registry additionally folds every
	// mutation into tumbling windows of Telemetry.Window, SLO alert rules
	// are evaluated at window boundaries into Report.Alerts, and a flight
	// recorder rides on the run's sink — dumps triggered by alert firings,
	// fault injections, and readback mismatches land in Report.FlightDumps.
	// Everything derives from virtual time, so a telemetry run stays
	// deterministic; nil leaves the run byte-identical to builds without
	// telemetry code.
	Telemetry *obs.Telemetry

	// Adaptive, if non-nil, switches the run into closed-loop adaptive I/O
	// (DESIGN.md §16): the master picks each flush batch's write strategy and
	// ROMIO hints at dispatch time from an online cost model fed by observed
	// flush windows (and their causal attribution on Causal runs), instead of
	// committing to Strategy for the whole run. Requires a single query group
	// and the non-resilient protocol; works in both the closed batch and
	// serving modes. Nil runs the original fixed-strategy protocol
	// byte-for-byte.
	Adaptive *AdaptiveConfig
}

// DefaultConfig reproduces the paper's §3.3 test setup at 64 processes with
// the WW-List strategy.
func DefaultConfig() Config {
	return Config{
		Procs:           64,
		Strategy:        WWList,
		ComputeSpeed:    1,
		QueriesPerWrite: 1,
		SyncEveryWrite:  true,
		Workload:        search.DefaultSpec(),
		Compute:         search.DefaultComputeModel(),
		Net:             mpi.Myrinet2000(),
		FS:              pvfs.FeynmanLike(),
		MergeBandwidth:  150e6,
		FormatBandwidth: 3e6,
		ScoreEntryBytes: 16,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Procs < 2 {
		return errors.New("core: need at least 2 processes (1 master + 1 worker)")
	}
	if c.Workload.NumQueries < 1 || c.Workload.NumFragments < 1 {
		return errors.New("core: workload needs queries and fragments")
	}
	if c.QueriesPerWrite < 1 {
		return errors.New("core: QueriesPerWrite must be >= 1")
	}
	if c.ResumeFromQuery < 0 || c.ResumeFromQuery >= c.Workload.NumQueries {
		return errors.New("core: ResumeFromQuery out of range")
	}
	if g := c.QueryGroups; g > 1 {
		if c.Procs < 2*g {
			return errors.New("core: each query group needs a master and at least one worker")
		}
		if c.Workload.NumQueries-c.ResumeFromQuery < g {
			return errors.New("core: fewer remaining queries than query groups")
		}
	}
	if c.MergeBandwidth <= 0 {
		return errors.New("core: MergeBandwidth must be positive")
	}
	if c.FormatBandwidth <= 0 {
		return errors.New("core: FormatBandwidth must be positive")
	}
	if c.ScoreEntryBytes < 1 {
		return errors.New("core: ScoreEntryBytes must be >= 1")
	}
	if c.FS.NumServers < 1 {
		return errors.New("core: FS.NumServers must be >= 1")
	}
	if c.FS.StripSize < 1 {
		return errors.New("core: FS.StripSize must be >= 1")
	}
	if c.LeaseTimeout < 0 || c.DetectInterval < 0 {
		return errors.New("core: fault timeouts must be non-negative")
	}
	if c.MaxTaskRetries < 0 {
		return errors.New("core: MaxTaskRetries must be non-negative")
	}
	hints := romio.Hints{
		CBNodes:         c.CBNodes,
		CollWriteMethod: c.CollMethod,
		IndWriteMethod:  c.indMethod(),
	}
	if err := hints.Validate(); err != nil {
		return err
	}
	if err := c.validateAdaptive(); err != nil {
		return err
	}
	if err := c.validateServe(); err != nil {
		return err
	}
	if c.Telemetry != nil {
		if err := c.Telemetry.Validate(); err != nil {
			return err
		}
	}
	if err := c.validateReadback(); err != nil {
		return err
	}
	if !c.FaultPlan.IsEmpty() {
		if err := c.FaultPlan.Validate(); err != nil {
			return err
		}
		if err := c.FaultPlan.ValidateFor(c.Procs, c.FS.NumServers, c.masterRanks(), c.Readback != nil); err != nil {
			return err
		}
	}
	return nil
}

// masterRanks lists the master rank of every group under the same block
// layout buildGroups uses (first rank of each contiguous block).
func (c *Config) masterRanks() []int {
	G := c.QueryGroups
	if G < 1 {
		G = 1
	}
	out := make([]int, 0, G)
	rank := 0
	for gi := 0; gi < G; gi++ {
		size := c.Procs / G
		if gi < c.Procs%G {
			size++
		}
		out = append(out, rank)
		rank += size
	}
	return out
}

// WorkerRanks lists every worker (non-master) rank of the configuration,
// in ascending order — the valid Rank targets for fault.Event crashes and
// slowdowns (masters must not be crashed, see Plan.ValidateFor).
func (c *Config) WorkerRanks() []int {
	masters := c.masterRanks()
	isMaster := make(map[int]bool, len(masters))
	for _, m := range masters {
		isMaster[m] = true
	}
	out := make([]int, 0, c.Procs-len(masters))
	for r := 0; r < c.Procs; r++ {
		if !isMaster[r] {
			out = append(out, r)
		}
	}
	return out
}

// resilient reports whether the run uses the recovery protocol: explicitly
// requested, or implied by a fault plan the original protocol cannot absorb.
// Serving runs carry pure performance-fault plans (degrade/outage/delay —
// validateServe rejects anything stronger) on the original protocol, so
// latency faults can hit the open-loop scenario the telemetry pipeline
// watches.
func (c *Config) resilient() bool {
	if c.Resilient {
		return true
	}
	if c.FaultPlan.IsEmpty() {
		return false
	}
	return c.Serve == nil || c.FaultPlan.NeedsResilience()
}

// effDetect resolves the failure-detector sweep period.
func (c *Config) effDetect() des.Time {
	if c.DetectInterval > 0 {
		return c.DetectInterval
	}
	return 250 * des.Millisecond
}

// effLease resolves the task/write-ack lease timeout.
func (c *Config) effLease() des.Time {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	if d := 8 * c.effDetect(); d > 2*des.Second {
		return d
	}
	return 2 * des.Second
}

// effRetries resolves the per-task re-dispatch bound.
func (c *Config) effRetries() int {
	if c.MaxTaskRetries > 0 {
		return c.MaxTaskRetries
	}
	return 3
}

// EffectiveWorkload returns the workload spec a run of c actually
// generates: under QuerySeg the fragment count is forced to 1 (a task is a
// whole query against the whole replicated database). Workloads shared via
// RunWithWorkload must be generated from this spec, not c.Workload.
func (c *Config) EffectiveWorkload() search.Spec {
	s := c.Workload
	if c.Segmentation == QuerySeg {
		s.NumFragments = 1
	}
	return s
}

// indMethod resolves the ADIO method for individual worker writes.
func (c *Config) indMethod() romio.Method {
	if c.OverrideIndMethod {
		return c.IndMethod
	}
	if c.Strategy == WWPosix {
		return romio.Posix
	}
	return romio.ListIO
}

// mergeTime returns the modeled cost of merging newBytes into an
// accumulated sorted list of accBytes.
func (c *Config) mergeTime(accBytes, newBytes int64) des.Time {
	return des.BytesOver(accBytes+newBytes, c.MergeBandwidth)
}
