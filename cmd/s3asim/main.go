// Command s3asim runs a single S3aSim simulation and prints the overall
// execution time, the per-phase decomposition (master and worker-average),
// and file-system statistics.
//
// Usage:
//
//	s3asim [flags]
//
// Examples:
//
//	s3asim -procs 96 -strategy WW-List
//	s3asim -procs 64 -strategy WW-Coll -sync -speed 3.2
//	s3asim -procs 16 -strategy MW -trace trace.jsonl
//	s3asim -procs 16 -fault "crash@200ms:rank=3,restart=1s; drop:prob=0.02" -metrics
//
// A non-empty -fault plan (grammar: "kind[@start][:key=value,...]; ...",
// kinds crash, slow, outage, degrade, drop, delay) or -resilient switches
// the run to the self-healing protocol; -lease, -detect and -retries tune
// its recovery knobs. Invalid flags exit non-zero with a one-line error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"s3asim"
	"s3asim/internal/trace"
)

func main() {
	var (
		procs      = flag.Int("procs", 64, "total MPI processes (1 master + workers)")
		strategy   = flag.String("strategy", "WW-List", "I/O strategy: MW, WW-POSIX, WW-List, WW-Coll")
		sync       = flag.Bool("sync", false, "enable the query-sync option")
		speed      = flag.Float64("speed", 1, "compute speed factor (paper sweeps 0.1..25.6)")
		queries    = flag.Int("queries", 20, "number of input queries")
		fragments  = flag.Int("fragments", 128, "number of database fragments")
		perWrite   = flag.Int("queries-per-write", 1, "flush results every n queries (n=queries writes at end)")
		noFileSync = flag.Bool("no-file-sync", false, "skip MPI_File_sync after writes")
		servers    = flag.Int("servers", 16, "PVFS2 I/O servers")
		seed       = flag.Int64("seed", 0, "workload seed (0 = paper default)")
		tracePath  = flag.String("trace", "", "write a phase timeline (JSON lines) to this file")
		perfetto   = flag.String("perfetto", "", "write the phase timeline as Chrome trace-event JSON (open in ui.perfetto.dev)")
		metrics    = flag.Bool("metrics", false, "print the run's metrics snapshot (counters, histograms)")
		csv        = flag.Bool("csv", false, "print the phase table as CSV")
		explain    = flag.Bool("explain", false, "record causal structure and print the critical-path attribution")
		faultSpec  = flag.String("fault", "", `fault plan, e.g. "crash@200ms:rank=3,restart=1s; drop:prob=0.05"`)
		resilient  = flag.Bool("resilient", false, "use the self-healing protocol even with no faults")
		lease      = flag.Duration("lease", 0, "task/write-ack lease timeout (0 = default)")
		detect     = flag.Duration("detect", 0, "failure-detector sweep period (0 = default)")
		retries    = flag.Int("retries", 0, "per-task re-dispatch bound (0 = default)")
		window     = flag.Duration("window", 0, "telemetry window width (0 disables the windowed time-series)")
		flightDir  = flag.String("flight-dir", "", "write flight-recorder JSONL dumps into this directory (needs -window)")
	)
	var sloSpecs sloFlags
	flag.Var(&sloSpecs, "slo", `telemetry alert rule, repeatable (e.g. "hot:rate(pvfs.requests)>1000"; needs -window)`)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	cfg := s3asim.DefaultConfig()
	cfg.Procs = *procs
	cfg.QuerySync = *sync
	cfg.ComputeSpeed = *speed
	cfg.Workload.NumQueries = *queries
	cfg.Workload.NumFragments = *fragments
	cfg.QueriesPerWrite = *perWrite
	cfg.SyncEveryWrite = !*noFileSync
	cfg.FS.NumServers = *servers
	if *seed != 0 {
		cfg.Workload.Seed = *seed
	}
	var err error
	cfg.Strategy, err = s3asim.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	cfg.Resilient = *resilient
	cfg.LeaseTimeout = s3asim.Time(*lease)
	cfg.DetectInterval = s3asim.Time(*detect)
	cfg.MaxTaskRetries = *retries
	if *faultSpec != "" {
		cfg.FaultPlan, err = s3asim.ParseFaultPlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}
	if *window > 0 {
		rules, err := s3asim.ParseAlertRules(sloSpecs)
		if err != nil {
			fatal(err)
		}
		cfg.Telemetry = &s3asim.Telemetry{Window: s3asim.Time(*window), Rules: rules}
	} else if len(sloSpecs) > 0 || *flightDir != "" {
		fatal(fmt.Errorf("-slo and -flight-dir need -window"))
	}
	// Validate up front so every bad flag combination dies with one line
	// before any simulation state is built (Run re-validates either way).
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	var tr *trace.Tracer
	if *tracePath != "" || *perfetto != "" {
		tr = trace.New()
		cfg.Sink = tr
	}
	var rec *s3asim.CausalRecorder
	if *explain {
		rec = s3asim.NewCausalRecorder()
		// With a Perfetto export requested, also record message flows so the
		// timeline gets sender→receiver arrows.
		rec.SetCaptureFlows(*perfetto != "")
		cfg.Causal = rec
	}

	rep, err := s3asim.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("S3aSim: %s %s, %d processes, compute speed %g\n",
		rep.Strategy, syncWord(rep.QuerySync), rep.Procs, rep.ComputeSpeed)
	fmt.Printf("overall execution time: %.3f s\n", rep.Overall.Seconds())
	fmt.Printf("output: %.1f MB across %d PVFS2 servers (%d requests, %d segments, %d syncs)\n",
		float64(rep.OutputBytes)/1e6, len(rep.FS.Servers),
		rep.FS.TotalRequests, rep.FS.TotalSegments, rep.FS.TotalSyncs)
	fmt.Printf("network: %d messages, %.1f MB\n", rep.Messages, float64(rep.NetBytes)/1e6)
	if *resilient || *faultSpec != "" {
		mc := rep.Metrics.Counters
		fmt.Printf("faults: %d crashes (%d restarts), %d workers declared dead, %d tasks re-executed, %d collective fallbacks\n",
			mc["fault.crashes"], mc["fault.restarts"], mc["fault.workers_detected"],
			mc["fault.tasks_reexecuted"], mc["fault.coll_fallbacks"])
	}
	fmt.Println()
	if *csv {
		fmt.Print(rep.PhaseTable().CSV())
	} else {
		fmt.Print(rep.PhaseTable().String())
	}

	if *explain {
		printAttribution(rep)
	}

	if cfg.Telemetry != nil {
		printTelemetry(rep, *flightDir)
	}

	if *metrics {
		fmt.Printf("\nmetrics:\n%s", rep.Metrics.Render())
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (render with s3atrace)\n", *tracePath)
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		events := tr.Events()
		if rec != nil {
			// Message arrows from the causal recorder, rendered as flow
			// events between the phase slices.
			events = append(events, rec.FlowEvents()...)
		}
		if err := s3asim.WritePerfetto(f, events); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nperfetto trace written to %s (open in ui.perfetto.dev)\n", *perfetto)
	}
}

// printAttribution renders the run's critical-path attribution: where every
// virtual nanosecond of the overall time went, by causal category, with the
// conservation check made visible.
func printAttribution(rep *s3asim.Report) {
	att := rep.Attribution
	if att == nil {
		fatal(fmt.Errorf("run produced no attribution"))
	}
	if err := att.Check(); err != nil {
		fatal(err)
	}
	fmt.Printf("\ncritical-path attribution (ends on %s, %d steps):\n", att.EndProc, len(att.Steps))
	shares := att.Shares()
	for c := s3asim.Category(0); c < s3asim.NumCategories; c++ {
		if att.ByCat[c] == 0 {
			continue
		}
		fmt.Printf("  %-11s %10.3fs  %5.1f%%\n", c, att.ByCat[c].Seconds(), 100*shares[c])
	}
	fmt.Printf("  %-11s %10.3fs  100.0%%  (= overall, conservation verified)\n",
		"total", att.Total.Seconds())
}

// printTelemetry renders the run's windowed series, alert timeline, and
// flight dumps (written as JSONL when -flight-dir is set).
func printTelemetry(rep *s3asim.Report, flightDir string) {
	s := rep.Windows
	fired := 0
	for _, a := range rep.Alerts {
		if a.Fired {
			fired++
		}
	}
	fmt.Printf("\ntelemetry: %d windows of %.3fs, %d alerts fired, %d flight dumps\n",
		len(s.Windows), s.Width.Seconds(), fired, len(rep.FlightDumps))
	for _, a := range rep.Alerts {
		event := "resolve"
		if a.Fired {
			event = "fire"
		}
		fmt.Printf("  %.3fs %-7s %s (value %.6g, slow %.6g, threshold %.6g)\n",
			a.At.Seconds(), event, a.Rule, a.Value, a.Slow, a.Threshold)
	}
	fmt.Print(s.Table("windowed telemetry",
		"pvfs.requests", "pvfs.bytes_written", "pvfs.queue_wait", "pvfs.service").String())
	if flightDir == "" {
		return
	}
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		fatal(err)
	}
	for i := range rep.FlightDumps {
		d := &rep.FlightDumps[i]
		path := filepath.Join(flightDir, fmt.Sprintf("flight_%d.jsonl", d.Seq))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := d.WriteJSONL(f, rep.Windows, rep.Alerts); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("flight dump written to %s (%q at %.3fs)\n", path, d.Reason, d.At.Seconds())
	}
}

// sloFlags collects the repeatable -slo flag.
type sloFlags []string

func (m *sloFlags) String() string     { return strings.Join(*m, ",") }
func (m *sloFlags) Set(v string) error { *m = append(*m, v); return nil }

func syncWord(b bool) string {
	if b {
		return "sync"
	}
	return "no-sync"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s3asim:", err)
	os.Exit(1)
}
