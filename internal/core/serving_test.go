package core

import (
	"reflect"
	"sort"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/search"
)

// serveConfig is tinyConfig with a serving plan: evenly spaced arrivals.
func serveConfig(gap des.Time) Config {
	cfg := tinyConfig()
	cfg.Workload.NumQueries = 6
	arr := make([]des.Time, cfg.Workload.NumQueries)
	for i := range arr {
		arr[i] = des.Time(i) * gap
	}
	cfg.Serve = &ServePlan{Arrivals: arr}
	return cfg
}

func checkServeStats(t *testing.T, cfg Config, rep *Report) {
	t.Helper()
	if len(rep.Queries) != cfg.Workload.NumQueries {
		t.Fatalf("got %d query stats, want %d", len(rep.Queries), cfg.Workload.NumQueries)
	}
	for _, s := range rep.Queries {
		stamps := []des.Time{s.Arrival, s.Admitted, s.Dispatched, s.Gathered, s.FlushStart, s.Done}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				t.Fatalf("query %d: stamps not monotone: %v", s.Q, stamps)
			}
		}
		if s.Latency() <= 0 {
			t.Fatalf("query %d: nonpositive latency %v", s.Q, s.Latency())
		}
	}
}

func TestServeLifecycleAllStrategies(t *testing.T) {
	for _, s := range Strategies {
		for _, qs := range []bool{false, true} {
			cfg := serveConfig(des.Millisecond)
			cfg.Strategy = s
			cfg.QuerySync = qs
			rep := mustRun(t, cfg)
			if !rep.Verified {
				t.Fatalf("%v sync=%v: image not verified", s, qs)
			}
			checkServeStats(t, cfg, rep)
		}
	}
}

// Arrivals spaced far apart must complete before the next arrival: the
// serving master drains scores and flushes during the idle gap instead of
// parking results until the stream picks back up.
func TestServeIdleGapsFlushInFlightQueries(t *testing.T) {
	for _, s := range Strategies {
		cfg := serveConfig(10 * des.Second)
		cfg.Strategy = s
		rep := mustRun(t, cfg)
		checkServeStats(t, cfg, rep)
		for i := 0; i < len(rep.Queries)-1; i++ {
			if rep.Queries[i].Done > rep.Queries[i+1].Arrival {
				t.Fatalf("%v: query %d done at %v, after next arrival %v",
					s, i, rep.Queries[i].Done, rep.Queries[i+1].Arrival)
			}
		}
	}
}

// Simultaneous arrivals under SJF must dispatch in ascending result-volume
// order (ties toward the earlier arrival).
func TestServeSJFDispatchesSmallestFirst(t *testing.T) {
	cfg := serveConfig(0)
	cfg.Serve.Admission = ServeSJF
	rep := mustRun(t, cfg)
	checkServeStats(t, cfg, rep)

	wl := search.Generate(cfg.Workload)
	want := make([]int, cfg.Workload.NumQueries)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return wl.Queries[want[a]].Bytes < wl.Queries[want[b]].Bytes
	})
	got := make([]int, 0, len(rep.Queries))
	for _, s := range rep.Queries {
		got = append(got, s.Q)
	}
	sort.SliceStable(got, func(a, b int) bool {
		sa, sb := rep.Queries[got[a]], rep.Queries[got[b]]
		if sa.Dispatched != sb.Dispatched {
			return sa.Dispatched < sb.Dispatched
		}
		return sa.Q < sb.Q
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SJF dispatch order %v, want %v (bytes %v)", got, want, queryBytes(wl))
	}
}

func queryBytes(wl *search.Workload) []int64 {
	out := make([]int64, len(wl.Queries))
	for i := range wl.Queries {
		out[i] = wl.Queries[i].Bytes
	}
	return out
}

// Bursty simultaneous arrivals under WW-Coll with query sync exercise the
// run-ahead gate (task.Gate) with out-of-order flushes: the run must
// terminate (no gate deadlock) with every query durably written.
func TestServeWWCollBurstsNoDeadlock(t *testing.T) {
	for _, adm := range []ServeAdmission{ServeFIFO, ServeSJF} {
		cfg := tinyConfig()
		cfg.Procs = 7
		cfg.Workload.NumQueries = 12
		cfg.Strategy = WWColl
		cfg.QuerySync = true
		arr := make([]des.Time, cfg.Workload.NumQueries)
		for i := range arr {
			// Three bursts of four simultaneous arrivals.
			arr[i] = des.Time(i/4) * 5 * des.Millisecond
		}
		cfg.Serve = &ServePlan{Arrivals: arr, Admission: adm}
		rep := mustRun(t, cfg)
		if !rep.Verified {
			t.Fatalf("%v: image not verified", adm)
		}
		checkServeStats(t, cfg, rep)
	}
}

// Serving mode rejects configurations it cannot honor.
func TestServeValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Serve.Arrivals = c.Serve.Arrivals[:2] },
		func(c *Config) { c.Serve.Arrivals[0], c.Serve.Arrivals[1] = des.Second, 0 },
		func(c *Config) { c.QueriesPerWrite = 2 },
		func(c *Config) { c.QueryGroups = 2 },
		func(c *Config) { c.ResumeFromQuery = 1 },
	}
	for i, mutate := range bad {
		cfg := serveConfig(des.Millisecond)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: invalid serving config accepted", i)
		}
	}
}
