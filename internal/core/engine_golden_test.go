package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/fault"
	"s3asim/internal/obs"
	"s3asim/internal/romio"
)

// This file pins the worker's virtual-time behavior on paths the kernel
// golden matrix (golden_test.go) does not reach: the MW sync-token wait,
// the initial database load, the query-segmentation re-read, hybrid query
// groups, the list-sync collective, sieved individual writes, serving runs
// (including WW-Coll's Gate-based run-ahead check), the in-run readback
// verifier (individual and collective), and the adaptive controller. Every
// hash and event count below was captured while a second, goroutine-backed
// worker engine still existed, and both engines produced exactly these
// values — so the goldens carry that cross-check forward.

// engineFingerprint is fingerprint extended with the observables serving,
// readback and adaptive runs add: per-query lifecycle stamps, the readback
// counters, and the adaptive controller report. A run with none of them
// hashes to exactly fingerprint(rep).
func engineFingerprint(rep *Report) string {
	var b strings.Builder
	if rep.Queries != nil {
		fmt.Fprintf(&b, "queries=%+v\n", rep.Queries)
	}
	if rep.ReadbackReads != 0 || rep.ReadbackExtents != 0 {
		fmt.Fprintf(&b, "readback reads=%d extents=%d bytes=%d mismatches=%d\n",
			rep.ReadbackReads, rep.ReadbackExtents, rep.ReadbackBytes, rep.ReadbackMismatches)
	}
	if rep.Adaptive != nil {
		fmt.Fprintf(&b, "adaptive=%+v\n", *rep.Adaptive)
	}
	fp := fingerprint(rep)
	if b.Len() == 0 {
		return fp
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fp+"\n"+b.String())))
}

// engineCase is one pinned run. A case with err set pins a run that fails:
// its error text and calendar-event count instead of a fingerprint.
type engineCase struct {
	name   string
	config func() Config
	hash   string
	events uint64
	err    string
}

// goldenVariant is goldenConfig with one mutation applied.
func goldenVariant(mutate func(c *Config)) func() Config {
	return func() Config {
		cfg := goldenConfig()
		mutate(&cfg)
		return cfg
	}
}

// serveCell is a query-synchronized serving run under strategy s.
func serveCell(s Strategy) func() Config {
	return func() Config {
		cfg := serveConfig(2 * des.Millisecond)
		cfg.Strategy = s
		cfg.QuerySync = true
		return cfg
	}
}

// readbackCell is an in-run + post-run readback run under strategy s,
// reading through list I/O or (coll) the collective read.
func readbackCell(s Strategy, coll bool) func() Config {
	return func() Config {
		cfg := readbackConfig(s, romio.ListIO)
		cfg.Readback.Collective = coll
		return cfg
	}
}

var engineCases = []engineCase{
	{name: "WW-List_sync", hash: "0fc6eedc777656b68774f857cdfcbdc03fe1e462df54ae6411206efef1e08e32", events: 19897,
		config: goldenVariant(func(c *Config) { c.Strategy = WWList; c.QuerySync = true })},
	{name: "MW_sync_token", hash: "e25ec2d7228e0e445e6a1cbce579eb3299129ee435f619c8759bc271be154737", events: 6200,
		config: goldenVariant(func(c *Config) { c.Strategy = MW; c.QuerySync = true })},
	{name: "WW-Coll_two-phase", hash: "1c072fd527ced4dc6f8b5573f3e0d8cb1483e469f26e8c6bb3455acd5d909279", events: 21307,
		config: goldenVariant(func(c *Config) { c.Strategy = WWColl })},
	{name: "WW-Coll_list-sync", hash: "f8f8080865fc791996664f526574cd968017ed3707bcd6be1c6a179afc5390fd", events: 20465,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWColl
			c.CollMethod = romio.ListSync
		})},
	{name: "WW-POSIX_db-load", hash: "6ecaf3381f7c4c147e7a66300809e3f76d92aabf178e54810985edb781efa326", events: 27328,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWPosix
			c.DatabaseBytes = 64 << 20
		})},
	{name: "MW_query-seg_reread", hash: "054fef83161676e88ab817af12886a790ed668714278d456c09ffb9c9879244e", events: 2878,
		config: goldenVariant(func(c *Config) {
			c.Strategy = MW
			c.Segmentation = QuerySeg
			c.DatabaseBytes = 1 << 20
			c.WorkerMemoryBytes = 512 << 10
		})},
	{name: "WW-List_query-groups", hash: "508a4877a0b6e99cc2e8aadec37f60ca71a50dacc3e0ecd7d3d139d1479b688e", events: 12585,
		config: goldenVariant(func(c *Config) { c.Strategy = WWList; c.QueryGroups = 2 })},
	{name: "WW-List_sieve", hash: "4c5940fdcaeccae8f8306ed61bfd4aed916b96b23db51d53c74ca7e9cd802357", events: 41432,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWList
			c.OverrideIndMethod = true
			c.IndMethod = romio.DataSieve
		})},
	{name: "serve_MW", hash: "d1dd4edac049e700abeb5c32a3e42a0ed4742f44774de9a70ad1cd3d7e758ad1", events: 1523,
		config: serveCell(MW)},
	{name: "serve_WW-POSIX", hash: "3b5c31bfcfff53dd49f9dc3d6910db6620e44580e5aed3e92e80fc055dd28b89", events: 3459,
		config: serveCell(WWPosix)},
	{name: "serve_WW-List", hash: "f0e759202dc6b6733b94587b964a156d32cbb6d0209d31df9622ebf3955fc4bb", events: 3210,
		config: serveCell(WWList)},
	{name: "serve_WW-Coll", hash: "47f5805910a8f24e46509362bd51cd5f10dd333819e973a2dbf19cf72161ad30", events: 3530,
		config: serveCell(WWColl)},
	{name: "readback_MW", hash: "53ae3aae7bcde255353cc1104d62cacc0475f49cb4956ba2d2f4313566c0db69", events: 787,
		config: readbackCell(MW, false)},
	{name: "readback_WW-POSIX", hash: "c8ff3eff4901e4434ce07bb6dc5877e52bce9d81e83e78de89d3967fcfcf0a82", events: 1709,
		config: readbackCell(WWPosix, false)},
	{name: "readback_WW-List", hash: "82116947e96f3ff90dd7aa1326ccaa20787b480a0ab019c8a7bfe102976af14f", events: 1560,
		config: readbackCell(WWList, false)},
	{name: "readback_WW-Coll", hash: "4b4c47d51bed257b33606cefb2b4a8e5af35be1bd1a403518475850cebf4cd4c", events: 1916,
		config: readbackCell(WWColl, false)},
	{name: "readback_WW-Coll_collective", hash: "5bc18764e28ae3a64f2c51c6287f1ebfc37846cdc00c926436632cbb0e957b3d", events: 2092,
		config: readbackCell(WWColl, true)},
	{name: "adaptive", hash: "ad7997b06bc41583b9eb7765677b9df594791596c32b3fb1c73bfb475168216c", events: 8209,
		config: adaptiveConfig},
	// Master paths the cells above do not reach: a serving master idling
	// across arrival gaps (sleeping with nothing in flight, and draining
	// scores until the next arrival), SJF admission, adaptive I/O under
	// serving, the straggler wait after every worker was told there is no
	// more work (a delayed score overtaken by its sender's next request),
	// an uncontended master NIC, and a telemetry-on run.
	{name: "serve_idle", hash: "cafdd50e3843e5d5f56abf6b4bb455dd59a5b48b899bfde350b00a3577fe2d42", events: 3116,
		config: func() Config { return serveConfig(100 * des.Millisecond) }},
	{name: "serve_SJF", hash: "b0586066d4047a5106122a3469e38772f2fbf62f865aeaa84ae9a07dd8f656b3", events: 3015,
		config: func() Config {
			cfg := serveConfig(0)
			cfg.Serve.Admission = ServeSJF
			return cfg
		}},
	{name: "serve_adaptive", hash: "ff570a4d8d12332043ad04c3a7d8abd837b3b268c71c8969673f887ac6c41a3e", events: 1851,
		config: func() Config {
			cfg := serveConfig(2 * des.Millisecond)
			cfg.Adaptive = &AdaptiveConfig{}
			return cfg
		}},
	{name: "serve_delay_straggler", hash: "aaddabcb8f84471793c5b67a7970ea16fd31446da7e69555af310d62b2e5b9fd", events: 2866,
		config: func() Config {
			cfg := serveConfig(2 * des.Millisecond)
			cfg.FaultPlan = &fault.Plan{Seed: 5, Events: []fault.Event{
				{Kind: fault.Delay, Rank: -1, Server: -1, Prob: 0.3, Extra: 300 * des.Millisecond},
			}}
			return cfg
		}},
	{name: "master_NIC_uncontended", hash: "af628a54738f8344358b779bc82e2d6d9d763ea7148a4e2670a1b074f252a330", events: 20060,
		config: goldenVariant(func(c *Config) { c.DisableMasterNICSerialization = true })},
	{name: "telemetry", hash: "6a96f1755ebb098595097948df8b5730d75caac632c75956ad43256056993ddf", events: 20086,
		config: goldenVariant(func(c *Config) { c.Telemetry = &obs.Telemetry{Window: 100 * des.Millisecond} })},
}

// TestWorkerGoldenBehavior checks every engineCases run against its pinned
// fingerprint and calendar-event count.
func TestWorkerGoldenBehavior(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			rep := mustRun(t, ec.config())
			if got := engineFingerprint(rep); got != ec.hash {
				t.Errorf("virtual-time fingerprint drifted:\n got %s\nwant %s", got, ec.hash)
			}
			if rep.Events != ec.events {
				t.Errorf("calendar events = %d, pinned %d", rep.Events, ec.events)
			}
		})
	}
}

// This block pins the resilient master (DESIGN.md §9) beyond the kernel
// matrix's single faulted WW-List cell: every strategy under a crash with
// restart, the MW sync-token path, WW-Coll's taint-and-fallback, a
// permanent crash (scored-result requeue and recovery waves) and a
// drop-heavy plan (reply replay, lease requeue). The fingerprint adds the
// run's fault.* counters, so a change in the order the master handles
// expiries shows even when the phase totals do not move.

// resilientFingerprint is engineFingerprint extended with every fault.*
// counter in Report.Metrics, in name order.
func resilientFingerprint(rep *Report) string {
	var names []string
	for k := range rep.Metrics.Counters {
		if strings.HasPrefix(k, "fault.") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(engineFingerprint(rep))
	for _, k := range names {
		fmt.Fprintf(&b, "\n%s=%d", k, rep.Metrics.Counters[k])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// crashPlan crashes rank 5 at the given time; restart 0 leaves it dead
// for good.
func crashPlan(at, restart des.Time) *fault.Plan {
	return &fault.Plan{Seed: 7, Events: []fault.Event{
		{Kind: fault.Crash, At: at, Rank: 5, Server: -1, Restart: restart},
	}}
}

// restartPlan crashes rank 5 at 1.2s and restarts it 300ms later.
var restartPlan = crashPlan(1200*des.Millisecond, 300*des.Millisecond)

// resilientCell is goldenConfig under strategy s and plan p, with a 2ms
// detector sweep and a 200ms lease: short enough against the ~7s run that
// lease extensions and offset resends happen.
func resilientCell(s Strategy, p *fault.Plan, mutate func(c *Config)) func() Config {
	return func() Config {
		cfg := goldenConfig()
		cfg.Strategy = s
		cfg.FaultPlan = p
		cfg.DetectInterval = 2 * des.Millisecond
		cfg.LeaseTimeout = 200 * des.Millisecond
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
}

var resilientCases = []engineCase{
	{name: "crash-restart_MW", hash: "17d23efd0e73c6c3f212c0affa582f24d10a2f7898c50de942501c651e765663", events: 14025,
		config: resilientCell(MW, restartPlan, nil)},
	{name: "crash-restart_WW-POSIX", hash: "034b8ddc39913e0869ac7c532fb3f9fadd23b93d08029a9853865398fbef6711", events: 33304,
		config: resilientCell(WWPosix, restartPlan, nil)},
	{name: "crash-restart_WW-List", hash: "079180421cb1c09981c5a35a3428961dca540a89ac81926bc99fc788e9501f1a", events: 24713,
		config: resilientCell(WWList, restartPlan, nil)},
	{name: "crash-restart_WW-Coll", hash: "7059768149dd783850ee86674b04c59eed913590bd8b275bcfe64831b16a617f", events: 26348,
		config: resilientCell(WWColl, restartPlan, nil)},
	{name: "MW_sync_crash-restart", hash: "2bceda932f8b7b55b5689cfc5d5a3c97074952792f97424ee3f9a287b6482aac", events: 14349,
		config: resilientCell(MW, restartPlan,
			func(c *Config) { c.QuerySync = true })},
	{name: "WW-Coll_two-phase_sync_crash", hash: "148fa1d74bf6ccafd93dd3438cae97b9e79a1d96c10306e29b2a3df439dc9c74", events: 25750,
		config: resilientCell(WWColl, crashPlan(1200*des.Millisecond, 0),
			func(c *Config) { c.CollMethod = romio.TwoPhase; c.QuerySync = true })},
	{name: "permanent-crash_WW-List", hash: "6b9c9ef7c63f27b29772b34383f6013eabf89e09e1298a31bcd6f11738c03dc8", events: 24659,
		config: resilientCell(WWList, crashPlan(2400*des.Millisecond, 0), nil)},
	// A lossy run plus a 20x straggler: replayed replies, lost scores
	// re-dispatched on the next request, and a lease that runs out of
	// extensions.
	{name: "drop-heavy_WW-POSIX", hash: "5e7c1b1b943e203a203bff22fcf63ffec2776cac23b519db1f7911d59745dce1", events: 36289,
		config: resilientCell(WWPosix, &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.Drop, Rank: -1, Server: -1, Prob: 0.15},
			{Kind: fault.Slow, For: 3 * des.Second, Rank: 3, Server: -1, Factor: 20},
		}}, nil)},
	// Paths the resilient worker reaches that the cells above do not: in-run
	// readback after a restart (individual, and under WW-Coll's fallback),
	// the initial database load and the query-segmentation re-read in a
	// rejoined incarnation, the list-sync collective, two query groups, and
	// the protocol with nothing to recover.
	{name: "readback_crash-restart_WW-List", hash: "55bcc50606f42749ae611d9a9e60aa111faab7fe5b44d943078259466c10719a", events: 2330,
		config: resilientReadbackCell(WWList)},
	{name: "readback_crash-restart_WW-Coll_fallback", hash: "7b91b90402f72d25f735fde40a1228b5e5e942fe248f83820a4a3a829294523c", events: 2478,
		config: resilientReadbackCell(WWColl)},
	{name: "db-load_crash-restart_WW-POSIX", hash: "78a0e6e443031b1131405f62cbf8e0167558503cba7993cc1ae2b085ddd77b67", events: 34170,
		config: resilientCell(WWPosix, restartPlan,
			func(c *Config) { c.DatabaseBytes = 64 << 20 })},
	{name: "query-seg_reread_crash-restart_MW", hash: "caa9aa4840bfca27d110dfdf015e503bbe76654c764a9b74b18380494827421a", events: 7735,
		config: resilientCell(MW, restartPlan, func(c *Config) {
			c.Segmentation = QuerySeg
			c.DatabaseBytes = 1 << 20
			c.WorkerMemoryBytes = 512 << 10
		})},
	{name: "WW-Coll_list-sync_crash-restart", hash: "d614d0d2af2a35177ab236fed1b614c474564fd8a3f88d636ac49806892171f8", events: 26123,
		config: resilientCell(WWColl, restartPlan,
			func(c *Config) { c.CollMethod = romio.ListSync })},
	{name: "query-groups_crash-restart_WW-List", hash: "d8e2191bd7698151ec4d10a0d54d3af3fc2902335cbf573a20b4c6a9e1d7fbd5", events: 19768,
		config: resilientCell(WWList, restartPlan,
			func(c *Config) { c.QueryGroups = 2 })},
	{name: "empty-plan_WW-Coll_sync", hash: "290929d62cae4114ef4e0bc90ff23f369a86b21f86edec73f6dbd04a24e2990a", events: 28290,
		config: resilientCell(WWColl, nil,
			func(c *Config) { c.Resilient = true; c.QuerySync = true })},
	// Master paths the cells above do not reach. A 60ms delay on every
	// message sent in the 101ms before rank 5 crashes keeps its last work
	// request in flight past the crash: with a 5ms restart the new
	// incarnation's request overtakes it (a stale incarnation), with 100ms
	// the sweep declares the rank dead first (a dead incarnation's message).
	// A crash 10ms before the fault-free run would end, restarting 20ms
	// later while 300ms delays hold the shutdown handshake open, revives the
	// rank during shutdown. Crashing every worker for good fails the run.
	{name: "stale-incarnation_WW-List", hash: "41c2329b202abcf7b23271e97d37f3d448b22f2ebb9383de9d480b54a04edbd0", events: 25080,
		config: resilientCell(WWList, inFlightCrashPlan(5*des.Millisecond), nil)},
	{name: "dead-incarnation_WW-List", hash: "cbc7bf5fa02909b3a2a4c02818e13fec406f44a32fee7ebd94897841713f088a", events: 25074,
		config: resilientCell(WWList, inFlightCrashPlan(100*des.Millisecond), nil)},
	{name: "late-revival_WW-List", hash: "98b1329534662be36ba984c52e1caf3cceecc32c89644743696f39c849329965", events: 25616,
		config: resilientCell(WWList, &fault.Plan{Seed: 5, Events: []fault.Event{
			{Kind: fault.Crash, At: 6_126_302_877, Rank: 5, Server: -1, Restart: 20 * des.Millisecond},
			{Kind: fault.Delay, At: 5_836_302_877, Rank: -1, Server: -1, Prob: 1, Extra: 300 * des.Millisecond},
		}}, nil)},
	// A score rank 5 sent before crashing for good, delayed past the sweep
	// that declares it dead: the master drops it (the lease is requeued)
	// instead of merging placements for a rank that will never write them.
	{name: "dead-score_WW-List", hash: "f7603227e26eb5752e46a2bcaf3a11db0e1d19b85dfdc6ec1f8c4063a46ce51a", events: 24065,
		config: resilientCell(WWList, &fault.Plan{Seed: 5, Events: []fault.Event{
			{Kind: fault.Crash, At: 1200 * des.Millisecond, Rank: 5, Server: -1},
			{Kind: fault.Delay, At: 1100 * des.Millisecond, For: 200 * des.Millisecond,
				Rank: -1, Server: -1, Prob: 1, Extra: 20 * des.Millisecond},
		}}, nil)},
	{name: "no-live-worker_WW-List", err: "core: group 0 has unfinished work but no live workers and no pending restart", events: 295,
		config: resilientCell(WWList, &fault.Plan{Seed: 1, Events: []fault.Event{
			{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: 1, Server: -1},
			{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: 2, Server: -1},
			{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: 3, Server: -1},
			{Kind: fault.Crash, At: 10 * des.Millisecond, Rank: 4, Server: -1},
		}}, func(c *Config) { c.Procs = 5 })},
}

// inFlightCrashPlan crashes rank 5 at 1249ms, restarting after restart,
// with every message sent in [1149ms, 1250ms) delayed by 60ms.
func inFlightCrashPlan(restart des.Time) *fault.Plan {
	return &fault.Plan{Seed: 5, Events: []fault.Event{
		{Kind: fault.Crash, At: 1249 * des.Millisecond, Rank: 5, Server: -1, Restart: restart},
		{Kind: fault.Delay, At: 1149 * des.Millisecond, For: 101 * des.Millisecond,
			Rank: -1, Server: -1, Prob: 1, Extra: 60 * des.Millisecond},
	}}
}

// resilientReadbackCell is readbackConfig (five processes) under strategy s
// with worker 2 crashing at 10ms and restarting 50ms later.
func resilientReadbackCell(s Strategy) func() Config {
	return func() Config {
		cfg := readbackConfig(s, romio.ListIO)
		cfg.FaultPlan = chaosPlan(2)
		cfg.DetectInterval = des.Millisecond
		return cfg
	}
}

// checkFailingCase runs a case pinned as a failure, twice on the same
// kernel, and checks its error text and calendar-event count.
func checkFailingCase(t *testing.T, ec engineCase, cfg Config) {
	t.Helper()
	for run := 0; run < 2; run++ {
		_, err := Run(cfg)
		if err == nil || err.Error() != ec.err {
			t.Fatalf("run %d: error %v, want %q", run, err, ec.err)
		}
		if n := cfg.Sim.Events(); n != ec.events {
			t.Errorf("run %d: calendar events = %d, pinned %d", run, n, ec.events)
		}
	}
}

// TestResilientGoldenBehavior checks every resilientCases run against its
// pinned fingerprint and calendar-event count, then reruns it on the same
// reused kernel and requires the same fingerprint. Across the cells, lease
// extensions and offset resends must both occur.
func TestResilientGoldenBehavior(t *testing.T) {
	var extensions, resends int64
	for _, ec := range resilientCases {
		t.Run(ec.name, func(t *testing.T) {
			cfg := ec.config()
			cfg.Sim = des.New()
			if ec.err != "" {
				checkFailingCase(t, ec, cfg)
				return
			}
			rep := mustRun(t, cfg)
			got := resilientFingerprint(rep)
			if got != ec.hash {
				t.Errorf("virtual-time fingerprint drifted:\n got %s\nwant %s", got, ec.hash)
			}
			if rep.Events != ec.events {
				t.Errorf("calendar events = %d, pinned %d", rep.Events, ec.events)
			}
			if again := resilientFingerprint(mustRun(t, cfg)); again != got {
				t.Errorf("rerun on the reused kernel: fingerprint %s, first run %s", again, got)
			}
			extensions += rep.Metrics.Counters["fault.lease_extensions"]
			resends += rep.Metrics.Counters["fault.offset_resends"]
		})
	}
	if extensions == 0 || resends == 0 {
		t.Errorf("lease extensions = %d, offset resends = %d across the cells; both paths must be covered",
			extensions, resends)
	}
}
