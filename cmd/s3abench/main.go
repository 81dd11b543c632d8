// Command s3abench regenerates the paper's evaluation figures: the
// process-scalability suite (Figures 2–4), the compute-speed suite
// (Figures 5–7), and the §4 headline ratios. Output is printed as aligned
// tables (or CSV) — the same rows/series the paper plots.
//
// Usage:
//
//	s3abench [-suite procs|speed|figures|extensions|chaos|readback|scale|serve|adaptive|all] [-quick] [-csv]
//	         [-reps N] [-parallel N]
//	         [-explain] [-trace-dir dir] [-metrics] [-pprof file]
//
// The full paper suite takes several minutes sequentially; every cell of a
// suite is an independent deterministic simulation, so -parallel N (default
// GOMAXPROCS) fans cells out across N workers with bit-identical results,
// and each distinct pseudo-random workload is generated once per suite and
// shared. -quick runs a scaled-down version in seconds. -suite figures is
// the paper's figure pair (procs + speed). The extensions suite covers the
// paper's §5 future work: collective implementations, hybrid segmentation,
// the write-frequency/failure trade-off, and file-system sensitivity. The
// chaos suite sweeps injected worker crashes over the resilient protocol and
// reports each strategy's recovery cost (time inflation, re-executed tasks,
// failure-detection latency). The readback suite runs the verified read
// path: a mixed GET/PUT sweep (every durable batch re-read and content-checked
// at 100/0, 90/10, and 50/50 GET shares) followed by the readback-under-chaos
// battery, which re-runs committed fault plans with end-to-end content
// verification — any content mismatch fails the suite, so a clean exit
// certifies zero silent corruption. The scale suite runs the rank-scaling study
// (bounded task count, FSM worker engine) at 1k/10k/100k ranks — 1k/10k
// under -quick — reporting wall time, event throughput, and peak memory
// per rank; its cells run sequentially regardless of -parallel. The serve
// suite runs the open-loop serving scenario (seeded multi-tenant traffic
// over strategy × offered load) and reports latency percentiles from
// fixed-memory histograms, SLO accounting per tenant, throughput against
// offered load, and per-percentile-band tail critical-path attribution. The
// adaptive suite pits the closed-loop controller (per-batch strategy
// selection plus ROMIO hint hill-climbing, DESIGN.md §16) against every
// static strategy across five workload regimes, prints per-regime causal
// diff tables, and enforces the headline in-process: the controller must be
// no worse than the best static strategy anywhere (within the scale's
// documented tolerance) and strictly better on at least one mixed regime —
// a violation exits nonzero.
//
// -explain additionally runs the causal-tracing matrix (every strategy ×
// sync mode at one process count) and prints critical-path attribution
// tables: where every virtual nanosecond of each run's overall time goes
// (compute, io-service, io-queue, sync-wait, merge, transit, recovery), with
// an exact conservation check and a WW-Coll vs WW-List path diff.
//
// Each suite's host wall-clock time, parallelism, and executor profile go
// to stderr; stdout carries only the deterministic tables. The repo's
// performance record is the separate perfbench module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"s3asim"
)

func main() {
	var (
		suite    = flag.String("suite", "all", "which suite to run: procs, speed, figures, extensions, chaos, readback, scale, serve, adaptive, all")
		quick    = flag.Bool("quick", false, "scaled-down workload and sweep (seconds, not minutes)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		reps     = flag.Int("reps", 1, "repetitions per data point (paper used 3)")
		quiet    = flag.Bool("quiet", false, "suppress per-cell progress")
		chart    = flag.Bool("chart", false, "render ASCII charts after the tables")
		figs     = flag.String("figs", "", "write figure SVGs into this directory")
		parallel = flag.Int("parallel", 0, "concurrent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
		explain  = flag.Bool("explain", false, "run the causal-tracing matrix and print critical-path attribution")
		traceDir = flag.String("trace-dir", "", "write a per-cell phase-timeline JSONL into this directory")
		metrics  = flag.Bool("metrics", false, "print the aggregated metrics snapshot per suite")
		cpuProf  = flag.String("pprof", "", "write a CPU profile of the bench process to this file")
		window   = flag.Duration("window", 0, "telemetry window width for the serve and chaos suites (0 disables the pipeline)")
		flight   = flag.String("flight-dir", "", "write flight-recorder JSONL dumps and the HTML timeline into this directory (needs -window)")
		faultStr = flag.String("fault", "", "performance-fault plan injected into every serve-suite cell (e.g. \"degrade@3s:server=0,factor=50,for=4s\")")
		stratStr = flag.String("strategy", "", "restrict sweeps to these comma-separated strategies (default all four)")
		loadsStr = flag.String("loads", "", "restrict the serve suite to these comma-separated offered-load multipliers")
	)
	var sloSpecs multiFlag
	flag.Var(&sloSpecs, "slo", "telemetry alert rule, repeatable (e.g. \"burn:burn(serve.slo_violations/serve.queries)>1:slo=0.5,fast=1s,slow=2s\"; needs -window)")
	flag.Parse()
	switch *suite {
	case "procs", "speed", "figures", "extensions", "chaos", "readback", "scale", "serve", "adaptive", "all":
	default:
		fatal(fmt.Errorf("unknown suite %q (want procs, speed, figures, extensions, chaos, readback, scale, serve, adaptive, or all)", *suite))
	}
	// "figures" is the paper's figure pair: the process and speed sweeps.
	wantSweep := func(kind string) bool {
		return *suite == kind || *suite == "figures" || *suite == "all"
	}
	if *figs != "" {
		if err := os.MkdirAll(*figs, 0o755); err != nil {
			fatal(err)
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var strategies []s3asim.Strategy
	if *stratStr != "" {
		for _, name := range strings.Split(*stratStr, ",") {
			s, err := s3asim.ParseStrategy(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			strategies = append(strategies, s)
		}
	}
	tel := buildTelemetry(*window, sloSpecs)
	if *flight != "" {
		if tel == nil {
			fatal(fmt.Errorf("-flight-dir needs -window"))
		}
		if err := os.MkdirAll(*flight, 0o755); err != nil {
			fatal(err)
		}
	}

	opts := s3asim.PaperOptions()
	if *quick {
		opts = s3asim.QuickOptions()
	}
	opts.Repetitions = *reps
	opts.Parallelism = *parallel
	opts.Strategies = strategies
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	effPar := *parallel
	if effPar <= 0 {
		effPar = runtime.GOMAXPROCS(0)
	}

	emit := func(sr *s3asim.SweepResult) {
		for _, tb := range sr.Tables() {
			if *csv {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		if *chart {
			fmt.Println(sr.OverallChart(false).ASCII(90, 18))
			fmt.Println(sr.OverallChart(true).ASCII(90, 18))
		}
		if *figs != "" {
			writeFigures(*figs, sr)
		}
		if *metrics {
			fmt.Printf("# metrics (%s suite, all runs merged)\n%s\n", sr.Kind, sr.Metrics.Render())
		}
		p := sr.Perf
		fmt.Fprintf(os.Stderr,
			"suite %s: %d cells in %.2fs wall at parallelism %d — %.2fx vs sequential (est.), peak %d in flight (occupancy %.0f%%), workload cache %d hits / %d misses\n",
			sr.Kind, len(sr.Cells), p.Elapsed.Seconds(), p.Parallelism,
			p.Speedup(), p.MaxConcurrent, p.Occupancy()*100, p.Workload.Hits, p.Workload.Misses)
	}

	if wantSweep("procs") {
		spool := newTraceSpool(*traceDir, "procs")
		opts.CellSink = spool.factory()
		sr, err := s3asim.RunProcessSweep(opts)
		spool.close()
		if err != nil {
			fatal(err)
		}
		emit(sr)
	}
	if wantSweep("speed") {
		spool := newTraceSpool(*traceDir, "speed")
		opts.CellSink = spool.factory()
		sr, err := s3asim.RunSpeedSweep(opts)
		spool.close()
		if err != nil {
			fatal(err)
		}
		emit(sr)
	}
	if *suite == "chaos" || *suite == "all" {
		copts := s3asim.PaperChaosOptions()
		if *quick {
			copts = s3asim.QuickChaosOptions()
		}
		copts.Repetitions = *reps
		copts.Parallelism = *parallel
		copts.Progress = opts.Progress
		copts.Strategies = strategies
		copts.Telemetry = tel
		copts.FlightDir = *flight
		cr, err := s3asim.RunChaosSweep(copts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", cr.Table().Title, cr.Table().CSV())
		} else {
			fmt.Println(cr.Table().String())
		}
		if tel != nil {
			fired, dumps := 0, 0
			for _, c := range cr.Cells {
				for _, a := range c.Alerts {
					if a.Fired {
						fired++
					}
				}
				dumps += c.Dumps
			}
			if *csv {
				fmt.Printf("# %s\n%s\n", cr.AlertTable().Title, cr.AlertTable().CSV())
			} else {
				fmt.Println(cr.AlertTable().String())
			}
			fmt.Printf("telemetry chaos: %d alerts fired, %d flight dumps\n", fired, dumps)
			writeTimeline(*flight, "chaos_timeline.html", cr.TimelineHTML())
		}
		if *metrics {
			fmt.Printf("# metrics (chaos suite, all runs merged)\n%s\n", cr.Metrics.Render())
		}
		p := cr.Perf
		fmt.Fprintf(os.Stderr,
			"suite chaos: %d cells in %.2fs wall at parallelism %d — %.2fx vs sequential (est.)\n",
			len(cr.Cells), p.Elapsed.Seconds(), p.Parallelism, p.Speedup())
	}
	if *suite == "readback" || *suite == "all" {
		// Mixed GET/PUT verification sweep, then the readback-under-chaos
		// battery. Both verify content end to end; a content mismatch
		// anywhere fails the suite.
		ropts := s3asim.PaperReadbackOptions()
		if *quick {
			ropts = s3asim.QuickReadbackOptions()
		}
		ropts.Repetitions = *reps
		ropts.Parallelism = *parallel
		ropts.Progress = opts.Progress
		rr, err := s3asim.RunReadbackSweep(ropts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", rr.Table().Title, rr.Table().CSV())
		} else {
			fmt.Println(rr.Table().String())
		}
		if *metrics {
			fmt.Printf("# metrics (readback suite, all runs merged)\n%s\n", rr.Metrics.Render())
		}
		p := rr.Perf
		fmt.Fprintf(os.Stderr,
			"suite readback: %d cells in %.2fs wall at parallelism %d — %.2fx vs sequential (est.)\n",
			len(rr.Cells), p.Elapsed.Seconds(), p.Parallelism, p.Speedup())

		qopts := s3asim.PaperReadbackChaosOptions()
		if *quick {
			qopts = s3asim.QuickReadbackChaosOptions()
		}
		qopts.Repetitions = *reps
		qopts.Parallelism = *parallel
		qopts.Progress = opts.Progress
		cb, err := s3asim.RunReadbackChaos(qopts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", cb.Table().Title, cb.Table().CSV())
		} else {
			fmt.Println(cb.Table().String())
		}
		if *metrics {
			fmt.Printf("# metrics (readback-chaos battery, all runs merged)\n%s\n", cb.Metrics.Render())
		}
		p = cb.Perf
		fmt.Fprintf(os.Stderr,
			"suite readback-chaos: %d cells in %.2fs wall at parallelism %d — 0 mismatches\n",
			len(cb.Cells), p.Elapsed.Seconds(), p.Parallelism)
	}
	if *suite == "extensions" || *suite == "all" {
		start := time.Now()
		runExtensions(opts, *csv, effPar)
		wall := time.Since(start)
		fmt.Fprintf(os.Stderr, "suite extensions: %.2fs wall at parallelism %d\n",
			wall.Seconds(), effPar)
	}
	if *suite == "scale" || *suite == "all" {
		// 100k ranks is a gigabyte-class cell; -quick stops at 10k, which
		// still exercises the same protocol-dominated regime.
		ranks := []int{1_000, 10_000, 100_000}
		if *quick {
			ranks = []int{1_000, 10_000}
		}
		start := time.Now()
		points, err := s3asim.ScaleSweep(ranks)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		tbl := s3asim.ScaleTable(points)
		if *csv {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
		// Host performance goes to stderr, like every suite summary, so
		// stdout stays bit-identical across hosts and -parallel levels.
		for _, p := range points {
			fmt.Fprintf(os.Stderr,
				"suite scale: %d ranks: %d events in %.2fs wall (%.0f events/sec), peak mem %.1f MB (%.0f B/rank)\n",
				p.Ranks, p.Events, p.Wall.Seconds(), p.EventsPerSecond(),
				float64(p.PeakMem)/1e6, p.MemPerRank())
		}
		fmt.Fprintf(os.Stderr, "suite scale: %d cells in %.2fs wall (sequential by design)\n",
			len(ranks), wall.Seconds())
	}
	if *suite == "serve" || *suite == "all" {
		sopts := s3asim.PaperServeOptions()
		if *quick {
			sopts = s3asim.QuickServeOptions()
		}
		sopts.Parallelism = *parallel
		sopts.Strategies = strategies
		if *loadsStr != "" {
			var loads []float64
			for _, f := range strings.Split(*loadsStr, ",") {
				var load float64
				if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &load); err != nil || load <= 0 {
					fatal(fmt.Errorf("-loads: bad multiplier %q", f))
				}
				loads = append(loads, load)
			}
			sopts.Loads = loads
		}
		sopts.Telemetry = tel
		sopts.FlightDir = *flight
		if *faultStr != "" {
			plan, err := s3asim.ParseFaultPlan(*faultStr)
			if err != nil {
				fatal(err)
			}
			sopts.Base.FaultPlan = plan
		}
		start := time.Now()
		sres, err := s3asim.RunServeSweep(sopts)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		for _, tb := range sres.Tables() {
			if *csv {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		if tel != nil {
			fired, dumps := 0, 0
			for _, c := range sres.Cells {
				for _, a := range c.Alerts {
					if a.Fired {
						fired++
					}
				}
				dumps += len(c.Dumps)
			}
			fmt.Printf("telemetry serve: %d alerts fired, %d flight dumps\n", fired, dumps)
			writeTimeline(*flight, "serve_timeline.html", sres.TimelineHTML())
		}
		queries := 0
		for _, c := range sres.Cells {
			queries += len(c.Queries)
		}
		fmt.Fprintf(os.Stderr,
			"suite serve: %d cells (%d queries) in %.2fs wall at parallelism %d\n",
			len(sres.Cells), queries, wall.Seconds(), effPar)
	}
	if *suite == "adaptive" || *suite == "all" {
		aopts := s3asim.PaperAdaptiveOptions()
		if *quick {
			aopts = s3asim.QuickAdaptiveOptions()
		}
		aopts.Parallelism = *parallel
		start := time.Now()
		ares, err := s3asim.RunAdaptiveSweep(aopts)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		for _, tb := range ares.Tables() {
			if *csv {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		// The suite's headline: never worse than the best static strategy
		// (beyond the scale's documented tolerance: the 48-query quick scale
		// carries a visible cold-start transient), strictly better somewhere
		// mixed. Failing it is a correctness failure of the controller, not a
		// perf regression.
		tol := 0.02
		if *quick {
			tol = 0.03
		}
		lost, wins := ares.Headline(tol)
		var switches int64
		for _, rr := range ares.Regimes {
			switches += rr.Controller().Switches
		}
		if len(lost) > 0 {
			fatal(fmt.Errorf("adaptive suite: controller lost to the best static beyond %.0f%% on %v",
				100*tol, lost))
		}
		if len(wins) == 0 {
			fatal(fmt.Errorf("adaptive suite: controller strictly won no mixed regime"))
		}
		fmt.Printf("adaptive headline: controller >= best static on all %d regimes (tol %.0f%%), strictly better on %v, %d arm switches\n",
			len(ares.Regimes), 100*tol, wins, switches)
		fmt.Fprintf(os.Stderr,
			"suite adaptive: %d regimes x %d cells in %.2fs wall at parallelism %d\n",
			len(ares.Regimes), len(ares.Regimes)*(len(ares.Strat)+1), wall.Seconds(), effPar)
	}
	if *explain {
		start := time.Now()
		runExplainMode(opts, *csv, *parallel)
		wall := time.Since(start)
		fmt.Fprintf(os.Stderr, "explain: %.2fs wall at parallelism %d\n", wall.Seconds(), effPar)
	}
}

// runExplainMode runs the causal-tracing matrix at the suite's speed-sweep
// process count and prints the critical-path attribution tables plus the
// query-sync penalty summary (paper Figures 4–9, mechanically).
func runExplainMode(opts s3asim.Options, csv bool, parallel int) {
	er, err := s3asim.RunExplain(s3asim.ExplainOptions{
		Base:        opts.Base,
		Procs:       opts.SpeedProcs,
		Parallelism: parallel,
	})
	if err != nil {
		fatal(err)
	}
	for _, tb := range er.Tables() {
		if csv {
			fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
	}
	fmt.Printf("query-sync penalty (critical-path sync-wait, sync minus no-sync, %d procs):\n", er.Procs)
	for _, s := range s3asim.Strategies {
		fmt.Printf("  %-8s %+.3fms\n", s, 1e3*er.SyncWaitDelta(s).Seconds())
	}
	fmt.Println()
}

// traceSpool opens one streaming JSONL sink per (cell, repetition) run of a
// suite — the per-cell tracing path that, unlike a shared Config.Sink,
// leaves the sweep free to run cells in parallel. Files are named
// <suite>_<strategy>_<sync|nosync>_x<X>_rep<N>.jsonl; render any of them
// with s3atrace.
type traceSpool struct {
	dir, kind string
	mu        sync.Mutex
	sinks     []*s3asim.StreamSink
	files     []*os.File
}

func newTraceSpool(dir, kind string) *traceSpool {
	return &traceSpool{dir: dir, kind: kind}
}

// factory returns the Options.CellSink hook, or nil when spooling is off.
// It may be invoked from several sweep goroutines at once.
func (ts *traceSpool) factory() func(k s3asim.CellKey, rep int) s3asim.Sink {
	if ts.dir == "" {
		return nil
	}
	return func(k s3asim.CellKey, rep int) s3asim.Sink {
		sync := "nosync"
		if k.QuerySync {
			sync = "sync"
		}
		name := fmt.Sprintf("%s_%s_%s_x%g_rep%d.jsonl",
			ts.kind, slug(k.Strategy.String()), sync, k.X, rep)
		f, err := os.Create(filepath.Join(ts.dir, name))
		if err != nil {
			fatal(err)
		}
		s := s3asim.NewStreamSink(f)
		ts.mu.Lock()
		ts.sinks = append(ts.sinks, s)
		ts.files = append(ts.files, f)
		ts.mu.Unlock()
		return s
	}
}

// close flushes and closes every spooled trace.
func (ts *traceSpool) close() {
	for i, s := range ts.sinks {
		if err := s.Close(); err != nil {
			fatal(err)
		}
		if err := ts.files[i].Close(); err != nil {
			fatal(err)
		}
	}
	if len(ts.files) > 0 {
		fmt.Fprintf(os.Stderr, "wrote %d cell traces to %s\n", len(ts.files), ts.dir)
	}
}

// runExtensions prints the §5 future-work studies.
func runExtensions(opts s3asim.Options, csv bool, parallel int) {
	base := opts.Base
	base.Procs = opts.SpeedProcs
	show := func(tbl *s3asim.Table, err error) {
		if err != nil {
			fatal(err)
		}
		if csv {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
	}
	procs := []int{base.Procs / 4, base.Procs}
	if procs[0] < 2 {
		procs[0] = 2
	}
	show(s3asim.CollectiveComparison(base, procs, parallel))
	hybrid := base
	hybrid.Strategy = s3asim.MW
	show(s3asim.HybridComparison(hybrid, []int{1, 2, 4}, parallel))
	outcomes, err := s3asim.ResumeTradeoff(base, []int{1, 5, base.Workload.NumQueries}, 0.5, parallel)
	if err != nil {
		fatal(err)
	}
	show(s3asim.ResumeTable(outcomes), nil)
	show(s3asim.ServerSweep(base, []int{8, 16, 32, 64}, parallel))
	show(s3asim.OutputScaleSweep(base, []float64{0.25, 1, 4}, parallel))
}

// writeFigures renders the sweep as paper-style SVG figures: a line chart
// per sync mode plus a stacked phase chart per strategy and sync mode.
func writeFigures(dir string, sr *s3asim.SweepResult) {
	prefix := map[string]string{"procs": "fig2", "speed": "fig5"}[sr.Kind]
	phasePrefix := map[string]string{"procs": "fig3-4", "speed": "fig6-7"}[sr.Kind]
	save := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	for _, sync := range []bool{false, true} {
		label := "nosync"
		if sync {
			label = "sync"
		}
		save(fmt.Sprintf("%s-%s.svg", prefix, label),
			sr.OverallChart(sync).SVG(720, 420))
		for _, s := range sr.Strat {
			save(fmt.Sprintf("%s-%s-%s.svg", phasePrefix, slug(s.String()), label),
				sr.PhaseChart(s, sync).SVG(720, 420))
		}
	}
}

// multiFlag collects a repeatable string flag (-slo can be given many times).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// buildTelemetry assembles the telemetry pipeline config from -window and
// the -slo rules, or nil when -window is absent.
func buildTelemetry(window time.Duration, specs []string) *s3asim.Telemetry {
	if window <= 0 {
		if len(specs) > 0 {
			fatal(fmt.Errorf("-slo needs -window"))
		}
		return nil
	}
	rules, err := s3asim.ParseAlertRules(specs)
	if err != nil {
		fatal(err)
	}
	return &s3asim.Telemetry{Window: s3asim.Time(window), Rules: rules}
}

// writeTimeline saves a sweep's self-contained HTML telemetry page, if both
// the directory and the page exist.
func writeTimeline(dir, name, html string) {
	if dir == "" || html == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
}

func slug(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "-", ""))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s3abench:", err)
	os.Exit(1)
}
