// Tracing: capture the phase timeline of every simulated process (the
// MPE/Jumpshot-style instrumentation of paper §3) and render it as an
// ASCII Gantt chart. The chart makes the strategies' behaviour visible at
// a glance: WW-Coll workers line up at collective boundaries, MW workers
// idle in data distribution while the master merges and writes.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"

	"s3asim"
	"s3asim/internal/trace"
)

func main() {
	for _, strat := range []s3asim.Strategy{s3asim.WWList, s3asim.WWColl} {
		tr := trace.New()
		cfg := s3asim.DefaultConfig()
		cfg.Procs = 6
		cfg.Strategy = strat
		cfg.Workload.NumQueries = 4
		cfg.Workload.NumFragments = 12
		cfg.Workload.MinResults = 80
		cfg.Workload.MaxResults = 120
		cfg.Workload.QueryHist = s3asim.UniformHistogram(500, 5000)
		cfg.Workload.DBSeqHist = s3asim.UniformHistogram(500, 50000)
		cfg.Sink = tr

		rep, err := s3asim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s — overall %.2fs ===\n", strat, rep.Overall.Seconds())
		fmt.Print(trace.Gantt(tr.Events(), 96))
		fmt.Println()
	}
}
