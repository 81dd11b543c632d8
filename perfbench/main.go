// Command perfbench is the repository's host-time benchmark. It runs one
// workload (batch, verify or chaos) for a fixed time, gates every simulated
// cell on its correctness invariants, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics from a separate CPU-profiled run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"s3asim/internal/core"
	"s3asim/internal/des"
)

// Set-up is repeated at least setupReps times and for at least setupTime;
// setup_s is the median. A short set-up needs many repetitions for a
// steady median.
const (
	setupReps = 5
	setupTime = 2 * time.Second
)

// minPasses is the fewest timed passes a phase makes, however short
// --seconds is.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "batch", "workload: batch, verify or chaos")
	seed := flags.Int64("seed", defaultSeed, "workload seed")
	seconds := flags.Float64("seconds", 10, "host seconds to measure for")
	traced := flags.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a CPU-profiled run")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) || flags.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments:", args)
		return 2
	}
	// The simulation kernel is sequential. At GOMAXPROCS=2 the goroutine
	// handoffs between master and resilient workers cross OS threads and
	// the pass times spread much wider.
	runtime.GOMAXPROCS(1)
	input := w.inputSeed(*seed)
	printEnvironment(stdout, w.name, *seed, input, *traced)

	b := &bench{w: w, sim: des.New()}
	var setup []float64
	for start := time.Now(); len(setup) < setupReps || time.Since(start) < setupTime; {
		// Collect the previous set-up's garbage first, so the heap's
		// high-water mark (peak_rss_mb) reflects one set-up, not wherever
		// the collector happened to run across several.
		runtime.GC()
		t0 := time.Now()
		b.cells = w.build(input)
		setup = append(setup, time.Since(t0).Seconds())
	}

	runtime.GC() // the warm-up starts from a collected heap too
	warm := b.warmUp(*seed)

	m := map[string]metric{}
	budget := time.Duration(*seconds * float64(time.Second))
	var plain []passResult
	if *traced == 0 {
		plain = b.passes(budget, false)
		m["wall_cal"] = metric{median(calibrated(plain)), "ratio"}
		m["setup_s"] = metric{median(setup), "s"}
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		m["cell_ok_ratio"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "ratio"}
	} else {
		plain = b.passes(budget/2, false)
		prof := b.passes(budget/2, true)
		if b.profErr != nil {
			fmt.Fprintln(stderr, "perfbench: cpu profile:", b.profErr)
			return 1
		}
		layerMetrics(m, plain, prof, warm.counts)
	}
	printSummary(stdout, b, warm, plain)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// bench is one workload's run state.
type bench struct {
	w     *workload
	cells []cell
	sim   *des.Simulation // reused by every cell of every pass
	want  []string        // per-cell fingerprint from the warm-up pass

	attempted, failed int
	failures          []string
	profErr           error // first CPU-profiler failure of a traced pass
}

func (b *bench) fail(msg string) {
	b.failures = append(b.failures, msg)
}

// warmUp runs the untimed warm-up pass, which fills the kernel's pools and
// the heap and fixes every cell's reference fingerprint. At the default
// seed it also checks the committed goldens.
func (b *bench) warmUp(seed int64) passResult {
	warm := b.pass(false)
	b.want = make([]string, len(warm.reps))
	for i, rep := range warm.reps {
		if rep != nil {
			b.want[i] = fingerprint(rep)
		}
	}
	if seed == defaultSeed {
		gold := golden()
		for i, rep := range warm.reps {
			if rep == nil {
				continue // already failed the gate
			}
			if bad := b.w.checkDefaultSeed(gold, b.cells[i].name, rep); len(bad) > 0 {
				b.failed++
				for _, v := range bad {
					b.fail(b.cells[i].name + ": default seed: " + v)
				}
			}
		}
	}
	return warm
}

// passResult is one pass over every cell.
type passResult struct {
	wall   float64            // host seconds inside core.RunWithWorkload
	cell   []float64          // the same, per cell
	cal    float64            // host seconds of the calibration runs beside the cells (untraced passes)
	reps   []*core.Report     // per cell; nil where the run failed (and on timed passes)
	counts map[string]float64 // deterministic simulator counts, summed over cells
	rt     runtimeDelta       // Go runtime counters across the pass's cells
	prof   *cpuProfile        // traced passes only
}

// pass runs every cell once, sequentially on one goroutine and one reused
// kernel, then gates each cell. With profile set the CPU profiler runs
// around the cells only, so the gate's own work stays out of the samples.
func (b *bench) pass(profile bool) passResult {
	pr := passResult{reps: make([]*core.Report, len(b.cells)), cell: make([]float64, len(b.cells))}
	errs := make([]error, len(b.cells))
	var buf bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			b.profErr = err
			profile = false
		}
	}
	for i := range b.cells {
		if !profile {
			pr.cal += b.w.calibrate()
		}
		before := readRuntime()
		t0 := time.Now()
		pr.reps[i], errs[i] = b.w.runCell(&b.cells[i], b.sim)
		pr.cell[i] = time.Since(t0).Seconds()
		pr.wall += pr.cell[i]
		pr.rt = pr.rt.add(readRuntime().sub(before))
	}
	if profile {
		pprof.StopCPUProfile()
		p, err := parseCPUProfile(buf.Bytes())
		if err != nil && b.profErr == nil {
			b.profErr = err
		}
		pr.prof = p
	}
	for i, c := range b.cells {
		want := ""
		if b.want != nil {
			want = b.want[i]
		}
		b.attempted++
		if bad := b.w.checkReport(pr.reps[i], errs[i], want); len(bad) > 0 {
			b.failed++
			for _, v := range bad {
				b.fail(c.name + ": " + v)
			}
			pr.reps[i] = nil
		}
	}
	pr.counts = counts(b.cells, pr.reps)
	return pr
}

// passes repeats pass until budget has elapsed (at least minPasses times).
func (b *bench) passes(budget time.Duration, profile bool) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < budget {
		p := b.pass(profile)
		p.reps = nil // do not keep every report alive on the heap being measured
		out = append(out, p)
	}
	return out
}

// counts sums the simulator's deterministic counts over one pass.
func counts(cells []cell, reps []*core.Report) map[string]float64 {
	c := map[string]float64{}
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		spec := cells[i].wl.Spec
		mc := rep.Metrics.Counters
		c["des.events"] += float64(rep.Events)
		c["mpi.messages"] += float64(rep.Messages)
		c["mpi.bytes"] += float64(rep.NetBytes)
		for _, k := range []string{"pvfs.requests", "pvfs.bytes_written", "pvfs.bytes_read", "pvfs.syncs",
			"fault.crashes", "fault.tasks_reexecuted", "adapt.switches"} {
			c[k] += float64(mc[k])
		}
		c["fault.resends"] += float64(mc["fault.request_resends"] + mc["fault.offset_resends"])
		c["tasks"] += float64(spec.NumQueries * spec.NumFragments)
		c["readback.reads"] += float64(rep.ReadbackReads)
		c["readback.extents"] += float64(rep.ReadbackExtents)
		c["readback.bytes"] += float64(rep.ReadbackBytes)
		c["readback.mismatches"] += float64(rep.ReadbackMismatches)
		if rep.Windows != nil {
			c["obs.windows"] += float64(len(rep.Windows.Windows))
		}
		for _, a := range rep.Alerts {
			if a.Fired {
				c["obs.alerts_fired"]++
			}
		}
		if rep.Adaptive != nil {
			c["adapt.epochs"] += float64(rep.Adaptive.Epochs)
		}
	}
	return c
}

// layerMetrics fills the per-layer metrics from the untraced passes (plain)
// and the CPU-profiled passes (prof). Counts come from the warm-up pass;
// the gate has already checked that every later pass repeats them.
func layerMetrics(m map[string]metric, plain, prof []passResult, cnt map[string]float64) {
	wall := median(walls(plain))
	all := &cpuProfile{}
	for _, p := range prof {
		if p.prof != nil {
			all.merge(p.prof)
		}
	}
	ln := all.layerNanos()
	perPass := func(nanos int64) float64 { return float64(nanos) / 1e9 / float64(len(prof)) }
	for _, l := range layers {
		key := l + ".self_s"
		switch l {
		case "runtime.gc":
			key = "runtime.gc_self_s"
		case "runtime.other":
			key = "runtime.other_self_s"
		}
		m[key] = metric{perPass(ln[l]), "s"}
	}
	m["trace.overhead_s"] = metric{median(walls(prof)) - wall, "s"}
	m["host.wall_s"] = metric{wall, "s"}
	cal := make([]float64, len(plain))
	for i, p := range plain {
		cal[i] = p.cal
	}
	m["host.cal_s"] = metric{median(cal), "s"}

	m["des.events"] = metric{cnt["des.events"], "count"}
	m["des.ns_per_event"] = metric{ratio(wall*1e9, cnt["des.events"]), "ns"}
	for _, k := range []string{"pvfs.requests", "pvfs.syncs", "mpi.messages", "readback.reads",
		"readback.extents", "readback.mismatches", "fault.crashes", "fault.tasks_reexecuted",
		"fault.resends", "obs.windows", "obs.alerts_fired", "adapt.switches", "adapt.epochs"} {
		m[k] = metric{cnt[k], "count"}
	}
	for _, k := range []string{"pvfs.bytes_written", "pvfs.bytes_read", "mpi.bytes", "readback.bytes"} {
		m[k] = metric{cnt[k], "bytes"}
	}
	m["pvfs.ns_per_request"] = metric{ratio(perPass(ln["pvfs"])*1e9, cnt["pvfs.requests"]), "ns"}
	// Every task is dispatched once, plus once more per re-execution.
	m["fault.useful_ratio"] = metric{ratio(cnt["tasks"], cnt["tasks"]+cnt["fault.tasks_reexecuted"]), "ratio"}

	var alloc, cycles, gcCPU []float64
	for _, p := range plain {
		alloc = append(alloc, p.rt.allocBytes/(1<<20))
		cycles = append(cycles, p.rt.gcCycles)
		gcCPU = append(gcCPU, p.rt.gcCPU)
	}
	m["runtime.alloc_mb"] = metric{median(alloc), "MB"}
	m["runtime.gc_cycles"] = metric{median(cycles), "count"}
	m["runtime.gc_cpu_s"] = metric{median(gcCPU), "s"}
}

// runtimeDelta is a difference of Go runtime counters.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // estimated GC CPU seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: val(s[0].Value), gcCycles: val(s[1].Value), gcCPU: val(s[2].Value)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// calibrated is each pass's host seconds over its calibration seconds.
func calibrated(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall / p.cal
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (every cell of the warm-up failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func walls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printEnvironment records the settings a reader needs to compare runs.
func printEnvironment(out io.Writer, workload string, seed, input int64, traced int) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d input_seed=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d vcs.revision=%s\n",
		workload, seed, input, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev)
}

// printSummary prints the warm-up pass's per-cell virtual times, the timed
// passes' host seconds, and every gate failure, ahead of the JSON line.
func printSummary(out io.Writer, b *bench, warm passResult, plain []passResult) {
	for i, c := range b.cells {
		if rep := warm.reps[i]; rep != nil {
			fmt.Fprintf(out, "cell %-20s overall=%9.3fs events=%-8d warm-up host=%.3fs\n",
				c.name, rep.Overall.Seconds(), rep.Events, warm.cell[i])
		}
	}
	w, r := walls(plain), calibrated(plain)
	sort.Float64s(w)
	fmt.Fprintf(out, "timed passes=%d host seconds min=%.4f median=%.4f max=%.4f calibrated median=%.4f\n",
		len(w), w[0], median(w), w[len(w)-1], median(r))
	for _, f := range b.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	fmt.Fprintf(out, "cells attempted=%d failed=%d error_rate=%g\n",
		b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
}
