// Package s3asim is a Go reproduction of S3aSim, the sequence similarity
// search algorithm simulator of Ching, Feng, Lin, Ma and Choudhary,
// "Exploring I/O Strategies for Parallel Sequence-Search Tools with S3aSim"
// (HPDC 2006).
//
// S3aSim models a database-segmented parallel sequence-search tool
// (mpiBLAST/pioBLAST-like): a master distributes (query, fragment) tasks to
// workers, workers model the search and produce pseudo-random scored
// results, and the merged results are written to a shared output file using
// one of four I/O strategies:
//
//	MW        — the master gathers full results and writes contiguously
//	WW-POSIX  — workers write individually with per-segment POSIX I/O
//	WW-List   — workers write individually with batched list I/O
//	WW-Coll   — workers write collectively with two-phase MPI-IO
//
// Everything the original system ran on is simulated deterministically in
// virtual time: MPI point-to-point and barriers over a Myrinet-like network
// (internal/mpi), a PVFS2-style striped parallel file system (internal/pvfs),
// and a ROMIO-style MPI-IO layer (internal/romio), all above a discrete-event
// kernel (internal/des).
//
// Quick start:
//
//	cfg := s3asim.DefaultConfig()    // paper §3.3 setup, 64 procs, WW-List
//	cfg.Strategy = s3asim.WWColl
//	rep, err := s3asim.Run(cfg)
//	fmt.Println(rep.Overall, rep.WorkerAvg.Phases[s3asim.PhaseIO])
//
// The experiment harnesses reproduce the paper's figures:
//
//	sweep, err := s3asim.RunProcessSweep(s3asim.PaperOptions()) // Fig. 2–4
//	fmt.Println(sweep.OverallTable(false))
package s3asim

import (
	"io"

	"s3asim/internal/causal"
	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/experiments"
	"s3asim/internal/fault"
	"s3asim/internal/mpi"
	"s3asim/internal/obs"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
	"s3asim/internal/search"
	"s3asim/internal/serve"
	"s3asim/internal/stats"
	"s3asim/internal/trace"
)

// Time is a virtual-time instant or duration in nanoseconds.
type Time = des.Time

// Strategy selects the result-writing algorithm (paper §2).
type Strategy = core.Strategy

// The four I/O strategies the paper compares.
const (
	MW      = core.MW
	WWPosix = core.WWPosix
	WWList  = core.WWList
	WWColl  = core.WWColl
)

// Strategies lists all strategies in presentation order.
var Strategies = core.Strategies

// ParseStrategy resolves a strategy from its paper name ("MW", "WW-POSIX",
// "WW-List", "WW-Coll").
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Phase is one of the paper's timing phases (§3).
type Phase = core.Phase

// The timing phases, in the paper's order.
const (
	PhaseSetup    = core.PhaseSetup
	PhaseDataDist = core.PhaseDataDist
	PhaseCompute  = core.PhaseCompute
	PhaseMerge    = core.PhaseMerge
	PhaseGather   = core.PhaseGather
	PhaseIO       = core.PhaseIO
	PhaseSync     = core.PhaseSync
	PhaseOther    = core.PhaseOther
	NumPhases     = core.NumPhases
)

// Config describes one simulation run; Report is its outcome.
type (
	Config        = core.Config
	Report        = core.Report
	ProcBreakdown = core.ProcBreakdown
)

// WorkloadSpec describes the simulated search workload (§3.3 input
// parameters); ComputeModel is the search-time model; Workload is a fully
// generated, immutable input.
type (
	WorkloadSpec = search.Spec
	ComputeModel = search.ComputeModel
	Workload     = search.Workload
)

// WorkloadCache memoizes generated workloads by spec content; CacheStats
// reports its hit/miss counters. A sweep generates each distinct workload
// once and shares the immutable result across all cells and goroutines.
type (
	WorkloadCache = search.Cache
	CacheStats    = search.CacheStats
)

// NewWorkloadCache returns an empty concurrency-safe workload cache.
func NewWorkloadCache() *WorkloadCache { return search.NewCache() }

// GenerateWorkload materializes the workload for spec; the same spec always
// yields the same workload.
func GenerateWorkload(spec WorkloadSpec) *Workload { return search.Generate(spec) }

// NetConfig and FSConfig are the interconnect and file-system cost models.
type (
	NetConfig = mpi.NetConfig
	FSConfig  = pvfs.Config
)

// Hints mirrors the MPI-IO hints (ROMIO) relevant to the paper.
type Hints = romio.Hints

// Segmentation selects the parallelization scheme (§1): the paper's
// database segmentation, or the query-segmentation baseline with its
// repeated input I/O.
type Segmentation = core.Segmentation

// The segmentation schemes.
const (
	DatabaseSeg = core.DatabaseSeg
	QuerySeg    = core.QuerySeg
)

// CollMethod selects the collective-write implementation for WW-Coll.
type CollMethod = romio.CollMethod

// The collective-write implementations: ROMIO's default two-phase, and the
// list-I/O-plus-forced-sync collective the paper's conclusion proposes.
const (
	TwoPhase = romio.TwoPhase
	ListSync = romio.ListSync
)

// IOMethod selects an individual (non-collective) ADIO access method —
// used by ROMIO hints and by ReadbackConfig.Method.
type IOMethod = romio.Method

// The individual ADIO methods.
const (
	Posix     = romio.Posix
	ListIO    = romio.ListIO
	DataSieve = romio.DataSieve
)

// BoxHistogram is the paper's piecewise-uniform size distribution input.
type BoxHistogram = stats.BoxHistogram

// DefaultConfig returns the paper's §3.3 test setup (64 processes, WW-List,
// 20 NT-histogram queries over 128 fragments, ≈208 MB of output, 16 PVFS2
// servers with 64 KB strips, sync after every write).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultWorkload returns the §3.3 workload specification.
func DefaultWorkload() WorkloadSpec { return search.DefaultSpec() }

// NTHistogram returns the NT-database-like sequence size histogram
// (min 6 B, max slightly over 43 MB, mean ≈ 4401 B — paper §3.3).
func NTHistogram() *BoxHistogram { return stats.NTLike() }

// UniformHistogram returns a single-box histogram over [min, max].
func UniformHistogram(min, max int64) *BoxHistogram { return stats.Uniform(min, max) }

// Run executes one simulated S3aSim application run.
func Run(cfg Config) (*Report, error) { return core.Run(cfg) }

// RunWithWorkload executes a run against a pre-generated workload, letting
// callers share one immutable workload across many runs (wl must come from
// cfg.EffectiveWorkload(); see WorkloadCache).
func RunWithWorkload(cfg Config, wl *Workload) (*Report, error) {
	return core.RunWithWorkload(cfg, wl)
}

// IOStats aggregates a file-system request trace (Config.TraceIO).
type IOStats = pvfs.IOStats

// AnalyzeIOTrace summarizes a report's file-system request trace: request
// rates, queueing, size distribution, per-server balance.
func AnalyzeIOTrace(rep *Report) IOStats {
	return pvfs.AnalyzeTrace(rep.IOTrace, len(rep.FS.Servers))
}

// Experiment harness types (paper §4 evaluation suites). Options.Parallelism
// bounds how many sweep cells run concurrently (0 = GOMAXPROCS); the
// resulting SweepResult is bit-identical at every parallelism, and
// SweepResult.Perf (a SweepPerf) records wall-clock, realized speedup, and
// workload-cache outcomes.
type (
	Options     = experiments.Options
	SweepResult = experiments.SweepResult
	Cell        = experiments.Cell
	CellKey     = experiments.CellKey
	SweepPerf   = experiments.SweepPerf
)

// PaperOptions returns the full §4 experiment scale; QuickOptions a reduced
// suite for smoke testing.
func PaperOptions() Options { return experiments.PaperOptions() }

// QuickOptions returns a scaled-down suite that runs in seconds.
func QuickOptions() Options { return experiments.QuickOptions() }

// RunProcessSweep reproduces the process-scalability suite (Figures 2–4).
func RunProcessSweep(opts Options) (*SweepResult, error) {
	return experiments.RunProcessSweep(opts)
}

// RunSpeedSweep reproduces the compute-speed suite (Figures 5–7).
func RunSpeedSweep(opts Options) (*SweepResult, error) {
	return experiments.RunSpeedSweep(opts)
}

// ResumeOutcome is one row of the write-frequency/failure trade-off study.
type ResumeOutcome = experiments.ResumeOutcome

// Table is an aligned-text/CSV result table.
type Table = stats.Table

// CollectiveComparison compares the two collective-write implementations
// (§5 future work): ROMIO two-phase vs list I/O with forced sync. The §5
// studies take an optional trailing parallelism (default GOMAXPROCS).
func CollectiveComparison(base Config, procs []int, parallelism ...int) (*Table, error) {
	return experiments.CollectiveComparison(base, procs, parallelism...)
}

// HybridComparison runs the §5 hybrid query/database segmentation
// extension across group counts.
func HybridComparison(base Config, groups []int, parallelism ...int) (*Table, error) {
	return experiments.HybridComparison(base, groups, parallelism...)
}

// ResumeTradeoff quantifies the §2 write-frequency/failure-recovery
// trade-off: a failure at failFrac of the clean run loses undurable work.
func ResumeTradeoff(base Config, granularities []int, failFrac float64, parallelism ...int) ([]ResumeOutcome, error) {
	return experiments.ResumeTradeoff(base, granularities, failFrac, parallelism...)
}

// ResumeTable renders resume outcomes as a table.
func ResumeTable(outcomes []ResumeOutcome) *Table {
	return experiments.ResumeTable(outcomes)
}

// ServerSweep varies the PVFS2 server count (§4's "larger file system
// configuration" discussion).
func ServerSweep(base Config, servers []int, parallelism ...int) (*Table, error) {
	return experiments.ServerSweep(base, servers, parallelism...)
}

// OutputScaleSweep varies the result volume (§5's "amount of results").
func OutputScaleSweep(base Config, multipliers []float64, parallelism ...int) (*Table, error) {
	return experiments.OutputScaleSweep(base, multipliers, parallelism...)
}

// SegmentationComparison quantifies §1's motivation: database segmentation
// versus the query-segmentation baseline as the database outgrows worker
// memory.
func SegmentationComparison(base Config, dbSizes []int64, parallelism ...int) (*Table, error) {
	return experiments.SegmentationComparison(base, dbSizes, parallelism...)
}

// ScaleConfig is the rank-scaling study configuration: procs total
// processes over a bounded task count, the regime the FSM worker engine
// (DESIGN.md §12) makes affordable at 100k ranks.
func ScaleConfig(procs int) Config { return core.ScaleConfig(procs) }

// ScalePoint is one rank-scaling cell: deterministic virtual-time
// observables plus this host's wall clock and peak sampled memory.
type ScalePoint = experiments.ScalePoint

// ScaleSweep runs ScaleConfig at each rank count. Cells run sequentially
// so the process-wide memory sample means something.
func ScaleSweep(ranks []int) ([]ScalePoint, error) { return experiments.ScaleSweep(ranks) }

// ScaleTable renders a sweep's deterministic virtual-time columns.
func ScaleTable(points []ScalePoint) *Table { return experiments.ScaleTable(points) }

// Fault-injection layer (internal/fault, DESIGN.md §9): a FaultPlan is a
// deterministic schedule of FaultEvents — worker crashes (with optional
// restart), straggler slowdowns, PVFS server outages and degradations, and
// probabilistic message drops/delays on the retry-protected tags. Attach via
// Config.FaultPlan; any non-empty plan (or Config.Resilient) switches the
// run to the self-healing master/worker protocol, and an empty plan leaves
// results bit-identical to the original protocol.
type (
	FaultPlan  = fault.Plan
	FaultEvent = fault.Event
	FaultKind  = fault.Kind
)

// The fault kinds.
const (
	FaultCrash   = fault.Crash
	FaultSlow    = fault.Slow
	FaultOutage  = fault.Outage
	FaultDegrade = fault.Degrade
	FaultDrop    = fault.Drop
	FaultDelay   = fault.Delay
)

// ParseFaultPlan parses the CLI fault-plan grammar
// ("kind[@start][:key=value,...]; ..."), e.g.
// "crash@200ms:rank=3,restart=1s; drop:prob=0.05; outage@1s:server=0,for=500ms".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// RandomCrashes builds a plan of n seeded worker crashes uniformly over
// [lo, hi); restart > 0 respawns each crashed worker after that delay.
func RandomCrashes(seed int64, n int, workers []int, lo, hi, restart Time) *FaultPlan {
	return fault.RandomCrashes(seed, n, workers, lo, hi, restart)
}

// Chaos suite: the crash-count sweep measuring each strategy's recovery
// cost (time inflation, re-executed tasks, detection latency).
type (
	ChaosOptions = experiments.ChaosOptions
	ChaosResult  = experiments.ChaosResult
	ChaosCell    = experiments.ChaosCell
)

// PaperChaosOptions returns the chaos suite at the paper's evaluation
// scale; QuickChaosOptions a scaled-down suite that runs in seconds.
func PaperChaosOptions() ChaosOptions { return experiments.PaperChaosOptions() }

// QuickChaosOptions returns the reduced chaos suite.
func QuickChaosOptions() ChaosOptions { return experiments.QuickChaosOptions() }

// RunChaosSweep executes the chaos suite: every strategy against the same
// randomized crash schedules, with a fault-free resilient baseline.
func RunChaosSweep(opts ChaosOptions) (*ChaosResult, error) {
	return experiments.RunChaosSweep(opts)
}

// The fault-event phase scopes (FaultEvent.Phase): window faults may declare
// themselves as targeting the write or verified-read I/O phase. phase=read
// plans are only valid on runs with Config.Readback set.
const (
	FaultPhaseAny   = fault.PhaseAny
	FaultPhaseWrite = fault.PhaseWrite
	FaultPhaseRead  = fault.PhaseRead
)

// Verified read path (internal/core/readback.go, DESIGN.md §14): file
// content is a seeded pseudo-random stream addressed by file offset; writers
// tag each segment with the stream range it carries, and verifiers read
// committed extents back through a real ADIO read strategy and check that
// every piece read holds the content of its own offset. Attach via
// Config.Readback (requires Config.CaptureData).
type ReadbackConfig = core.ReadbackConfig

// Readback suite: the mixed GET/PUT verification sweep and the
// readback-under-chaos battery (s3abench -suite readback).
type (
	ReadbackOptions      = experiments.ReadbackOptions
	ReadbackResult       = experiments.ReadbackResult
	ReadbackCell         = experiments.ReadbackCell
	ReadbackChaosOptions = experiments.ReadbackChaosOptions
	ReadbackChaosResult  = experiments.ReadbackChaosResult
	ReadbackChaosCell    = experiments.ReadbackChaosCell
	NamedFaultPlan       = experiments.NamedPlan
)

// PaperReadbackOptions returns the mixed GET/PUT readback sweep at the
// paper's evaluation scale; QuickReadbackOptions a scaled-down sweep.
func PaperReadbackOptions() ReadbackOptions { return experiments.PaperReadbackOptions() }

// QuickReadbackOptions returns the reduced readback sweep.
func QuickReadbackOptions() ReadbackOptions { return experiments.QuickReadbackOptions() }

// RunReadbackSweep executes the mixed GET/PUT readback sweep: every durable
// batch is re-read through the configured read strategy at the given GET
// share and content-verified; the post-run pass checks the whole image.
func RunReadbackSweep(opts ReadbackOptions) (*ReadbackResult, error) {
	return experiments.RunReadbackSweep(opts)
}

// PaperReadbackChaosOptions returns the readback-under-chaos battery at the
// paper's scale; QuickReadbackChaosOptions a scaled-down battery.
func PaperReadbackChaosOptions() ReadbackChaosOptions {
	return experiments.PaperReadbackChaosOptions()
}

// QuickReadbackChaosOptions returns the reduced chaos battery.
func QuickReadbackChaosOptions() ReadbackChaosOptions {
	return experiments.QuickReadbackChaosOptions()
}

// RunReadbackChaos re-runs the committed fault plans with end-to-end
// verification on: a returned result certifies zero content mismatches.
func RunReadbackChaos(opts ReadbackChaosOptions) (*ReadbackChaosResult, error) {
	return experiments.RunReadbackChaos(opts)
}

// Observability layer (internal/obs): Sink receives phase-timeline events as
// they happen (Config.Sink, Options.CellSink); MetricsRegistry accumulates
// counters, gauges, and virtual-time histograms (Config.Metrics); every
// Report carries a MetricsSnapshot, and a SweepResult carries the merge
// across all of its runs.
type (
	Sink            = obs.Sink
	MetricsRegistry = obs.Registry
	MetricsSnapshot = obs.Snapshot
	HistStat        = obs.HistStat
	StreamSink      = obs.StreamSink
)

// Tracer records a phase timeline in memory; TraceEvent is one interval or
// marker of it. Attach via Config.Sink, render with TraceGantt or export
// with WritePerfetto.
type (
	Tracer     = trace.Tracer
	TraceEvent = trace.Event
)

// NewTracer returns an empty in-memory timeline tracer.
func NewTracer() *Tracer { return trace.New() }

// NewMetricsRegistry returns an empty concurrency-safe metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStreamSink returns a sink that spools timeline events to w as JSON
// lines compatible with ReadTrace/s3atrace; call Close to flush.
func NewStreamSink(w io.Writer) *StreamSink { return obs.NewStreamSink(w) }

// MultiSink fans events out to every non-nil sink.
func MultiSink(sinks ...Sink) Sink { return obs.Multi(sinks...) }

// ReadTrace parses a JSON-lines timeline (written by Tracer.WriteJSON or a
// StreamSink).
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return trace.ReadJSON(r) }

// TraceGantt renders timeline events as an ASCII Gantt chart.
func TraceGantt(events []TraceEvent, width int) string { return trace.Gantt(events, width) }

// WritePerfetto exports timeline events as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WritePerfetto(w io.Writer, events []TraceEvent) error { return obs.WritePerfetto(w, events) }

// Causal-tracing layer (internal/causal, DESIGN.md §10): a CausalRecorder
// passively records happens-before structure alongside a run (Config.Causal,
// Options.CellCausal); the Report then carries an Attribution — the run's
// critical path with every virtual nanosecond attributed to a Category, under
// an exact conservation invariant (categories sum to the overall time).
type (
	CausalRecorder = causal.Recorder
	Attribution    = causal.Attribution
	Breakdown      = causal.Breakdown
	Category       = causal.Category
)

// The attribution categories.
const (
	CatCompute   = causal.CatCompute
	CatMerge     = causal.CatMerge
	CatIOQueue   = causal.CatIOQueue
	CatIOService = causal.CatIOService
	CatTransit   = causal.CatTransit
	CatSyncWait  = causal.CatSyncWait
	CatRecovery  = causal.CatRecovery
	CatOther     = causal.CatOther
)

// NumCategories is the number of attribution categories.
const NumCategories = causal.NumCategories

// CategoryNames returns the stable attribution table headers.
func CategoryNames() []string { return causal.CategoryNames() }

// NewCausalRecorder returns an empty happens-before recorder.
func NewCausalRecorder() *CausalRecorder { return causal.NewRecorder() }

// Explain harness: the strategy × {no-sync, sync} matrix at one process
// count, every run causally traced and critical-path attributed — the data
// behind `s3abench -explain` and `s3asim -explain`.
type (
	ExplainOptions = experiments.ExplainOptions
	ExplainResult  = experiments.ExplainResult
	ExplainRun     = experiments.ExplainRun
)

// RunExplain runs the explain matrix; every attribution returned is
// conservation-checked.
func RunExplain(opts ExplainOptions) (*ExplainResult, error) {
	return experiments.RunExplain(opts)
}

// Serving scenario (DESIGN.md §13): open-loop traffic plans driving the
// engine's serving mode, swept over offered load × strategy with per-query
// lifecycle spans, fixed-memory latency percentiles, SLO accounting, and
// banded tail critical-path attribution — the data behind
// `s3abench -suite serve`.
type (
	// ServePlan switches a single run into serving mode (Config.Serve).
	ServePlan = core.ServePlan
	// ServeAdmission selects the admission-queue discipline.
	ServeAdmission = core.ServeAdmission
	// QueryStat is one query's recorded lifecycle (Report.Queries).
	QueryStat = core.QueryStat
	// TrafficPlan describes seeded per-tenant open-loop traffic.
	TrafficPlan = serve.Plan
	// TrafficTenant is one tenant's arrival stream spec.
	TrafficTenant = serve.Tenant
	// Arrival is one query arrival in a generated schedule.
	Arrival = serve.Arrival
	// ServeOptions configures RunServeSweep.
	ServeOptions = experiments.ServeOptions
	// ServeResult is a completed serving sweep.
	ServeResult = experiments.ServeResult
	// ServeCell is one (strategy, load) outcome.
	ServeCell = experiments.ServeCell
)

// Admission disciplines and arrival processes.
const (
	ServeFIFO = core.ServeFIFO
	ServeSJF  = core.ServeSJF

	Poisson = serve.Poisson
	Bursty  = serve.Bursty
	Diurnal = serve.Diurnal
)

// PaperServeOptions returns the full serving scenario (three tenants over
// four offered loads); QuickServeOptions a scaled-down version that runs in
// seconds.
func PaperServeOptions() ServeOptions { return experiments.PaperServeOptions() }

// QuickServeOptions returns the reduced serving scenario.
func QuickServeOptions() ServeOptions { return experiments.QuickServeOptions() }

// RunServeSweep runs the serving scenario; every per-query tail attribution
// is conservation-checked before returning.
func RunServeSweep(opts ServeOptions) (*ServeResult, error) {
	return experiments.RunServeSweep(opts)
}

// GenerateArrivals expands a traffic plan into its merged arrival schedule.
func GenerateArrivals(p TrafficPlan) ([]Arrival, error) { return p.Generate() }

// Telemetry pipeline (DESIGN.md §15): Config.Telemetry turns the run's
// metrics registry into a windowed time-series over virtual time
// (conservation-checked against the end-of-run snapshot), evaluates
// declarative SLO alert rules at window boundaries, and arms a bounded
// flight recorder that dumps the last few virtual seconds of timeline on
// every alert firing, fault injection, or readback mismatch. Everything is
// deterministic: the same run produces bit-identical series, alert
// timelines, and dump bytes at any sweep parallelism.
type (
	// Telemetry configures the pipeline (window width, rules, flight sizes).
	Telemetry = obs.Telemetry
	// AlertRule is one parsed SLO rule (see ParseAlertRule).
	AlertRule = obs.Rule
	// Alert is one firing or resolution edge in an alert timeline.
	Alert = obs.Alert
	// MetricsSeries is a windowed time-series (Report.Windows).
	MetricsSeries = obs.Series
	// MetricsWindow is one tumbling window of a series.
	MetricsWindow = obs.Window
	// Exemplar is one retained (query ID, value) pair in a histogram bucket.
	Exemplar = obs.Exemplar
	// FlightRecorder is the triggered ring-buffer event recorder.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is one captured dump (Report.FlightDumps).
	FlightDump = obs.FlightDump
)

// ParseAlertRule parses one rule spec: "name:rate(counter)>thr",
// "name:pNN(hist)>thr", or "name:burn(bad/total)>thr:slo=f", each with
// optional ",fast=dur,slow=dur" multiwindow options ("<" inverts).
func ParseAlertRule(spec string) (*AlertRule, error) { return obs.ParseRule(spec) }

// ParseAlertRules parses a list of rule specs.
func ParseAlertRules(specs []string) ([]*AlertRule, error) { return obs.ParseRules(specs) }

// Closed-loop adaptive I/O (DESIGN.md §16): with Config.Adaptive set, the
// master picks each flush batch's write strategy and ROMIO hint vector
// online, from a per-query result-size predictor and an observed per-arm
// cost model seeded by a device-model prior, and hill-climbs cb_nodes and
// the sieve buffer over observation epochs — the machinery behind
// `s3abench -suite adaptive`.
type (
	// AdaptiveConfig switches a run into closed-loop adaptive I/O
	// (Config.Adaptive).
	AdaptiveConfig = core.AdaptiveConfig
	// AdaptiveReport summarizes the controller's run (Report.Adaptive).
	AdaptiveReport = core.AdaptiveReport
	// AdaptiveOptions configures RunAdaptiveSweep.
	AdaptiveOptions = experiments.AdaptiveOptions
	// AdaptiveResult is a completed adaptive sweep.
	AdaptiveResult = experiments.AdaptiveResult
	// AdaptiveRegimeResult is one regime's static-vs-controller comparison.
	AdaptiveRegimeResult = experiments.AdaptiveRegimeResult
	// AdaptiveCellResult is one (regime, policy) outcome.
	AdaptiveCellResult = experiments.AdaptiveCellResult
)

// PaperAdaptiveOptions returns the full adaptive scenario (five regimes at
// the paper's 16-process topology, 96 queries each); QuickAdaptiveOptions
// the same topology at 48 queries, for smoke runs.
func PaperAdaptiveOptions() AdaptiveOptions { return experiments.PaperAdaptiveOptions() }

// QuickAdaptiveOptions returns the reduced adaptive scenario.
func QuickAdaptiveOptions() AdaptiveOptions { return experiments.QuickAdaptiveOptions() }

// RunAdaptiveSweep runs every regime × (static + controller) cell under a
// causal recorder; every attribution is conservation-checked before
// returning.
func RunAdaptiveSweep(opts AdaptiveOptions) (*AdaptiveResult, error) {
	return experiments.RunAdaptiveSweep(opts)
}
