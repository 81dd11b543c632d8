package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/fault"
	"s3asim/internal/trace"
)

// causalConfig is tinyConfig scaled up slightly so every phase (including
// collective rounds and multiple flush batches) actually occurs.
func causalConfig(s Strategy, sync bool) Config {
	cfg := tinyConfig()
	cfg.Procs = 8
	cfg.Workload.NumQueries = 6
	cfg.Workload.NumFragments = 24
	cfg.Strategy = s
	cfg.QuerySync = sync
	return cfg
}

// TestAttributionConservation is the property test for the conservation
// invariant: for every strategy, with and without query-sync, with and
// without a non-empty fault plan, the critical-path categories sum exactly
// to the elapsed virtual time and the path steps tile [0, Overall).
func TestAttributionConservation(t *testing.T) {
	plans := map[string]string{
		"":      "",
		"fault": attributionFaultSpec,
	}
	for planName, spec := range plans {
		for _, s := range Strategies {
			for _, sync := range []bool{false, true} {
				name := fmt.Sprintf("%s/sync=%v/%s", s, sync, planName)
				t.Run(name, func(t *testing.T) {
					cfg := causalConfig(s, sync)
					if spec != "" {
						plan, err := fault.Parse(spec)
						if err != nil {
							t.Fatal(err)
						}
						cfg.FaultPlan = plan
					}
					rec := causal.NewRecorder()
					cfg.Causal = rec
					rep := mustRun(t, cfg)
					att := rep.Attribution
					if att == nil {
						t.Fatal("no attribution despite Config.Causal")
					}
					if err := att.Check(); err != nil {
						t.Fatal(err)
					}
					if att.Total != rep.Overall {
						t.Fatalf("attributed %v, overall %v", att.Total, rep.Overall)
					}
					if att.Truncated {
						t.Fatal("walk hit the step safety bound")
					}
					if att.ByCat[causal.CatCompute] == 0 {
						t.Fatalf("no compute on the critical path: %v", att)
					}
					// The per-window view must partition the whole path.
					mid := rep.Overall / 3
					var sum causal.Breakdown
					sum.Add(att.Between(0, mid))
					sum.Add(att.Between(mid, rep.Overall))
					if sum != att.ByCat {
						t.Fatalf("Between windows do not partition the path:\n%v\nvs\n%v", sum, att.ByCat)
					}
				})
			}
		}
	}
}

// TestCausalRecorderDoesNotPerturbRun pins the tentpole's safety property:
// attaching a recorder changes nothing observable about the simulation —
// same event count, same overall time, same traffic.
func TestCausalRecorderDoesNotPerturbRun(t *testing.T) {
	for _, s := range Strategies {
		cfg := causalConfig(s, true)
		base := mustRun(t, cfg)

		cfg = causalConfig(s, true)
		rec := causal.NewRecorder()
		rec.SetCaptureFlows(true)
		cfg.Causal = rec
		traced := mustRun(t, cfg)

		if base.Overall != traced.Overall || base.Events != traced.Events ||
			base.Messages != traced.Messages || base.NetBytes != traced.NetBytes {
			t.Fatalf("%s: recorder perturbed the run: overall %v vs %v, events %d vs %d, msgs %d vs %d",
				s, base.Overall, traced.Overall, base.Events, traced.Events, base.Messages, traced.Messages)
		}
		if len(rec.Flows()) == 0 {
			t.Fatalf("%s: no flows captured", s)
		}
	}
}

// TestWWCollSyncWaitDominates mechanically confirms the paper's explanation
// of the query-sync penalty: under WW-Coll, enabling query synchronization
// must attribute strictly more critical-path time to collective/sync wait
// than the unsynchronized run.
func TestWWCollSyncWaitDominates(t *testing.T) {
	run := func(sync bool) *causal.Attribution {
		cfg := causalConfig(WWColl, sync)
		cfg.Causal = causal.NewRecorder()
		return mustRun(t, cfg).Attribution
	}
	noSync := run(false)
	withSync := run(true)
	if withSync.ByCat[causal.CatSyncWait] <= noSync.ByCat[causal.CatSyncWait] {
		t.Fatalf("query-sync did not increase critical-path sync wait: sync=%v nosync=%v",
			withSync.ByCat[causal.CatSyncWait], noSync.ByCat[causal.CatSyncWait])
	}
}

// TestAttributionDeterministic pins that two identical runs produce
// identical attributions (category sums, path steps, end proc).
func TestAttributionDeterministic(t *testing.T) {
	run := func() *causal.Attribution {
		cfg := causalConfig(WWList, true)
		cfg.Causal = causal.NewRecorder()
		return mustRun(t, cfg).Attribution
	}
	a, b := run(), run()
	if a.Total != b.Total || a.ByCat != b.ByCat || a.EndProc != b.EndProc || len(a.Steps) != len(b.Steps) {
		t.Fatalf("attribution not deterministic:\n%v\nvs\n%v", a, b)
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// attributionFaultSpec is TestAttributionConservation's fault plan.
const attributionFaultSpec = "crash@40ms:rank=3,restart=200ms; slow@10ms:rank=5,factor=2,for=300ms; degrade@5ms:server=1,factor=3,for=100ms"

// resilientTimelineCases pins, for each faulted cell of
// TestAttributionConservation, a hash of the critical path (ByCat, EndProc,
// Steps) and a hash of every process's phase timeline as the Sink saw it.
// Causal records and phase switches are where a worker's waits and wakes
// show, so these catch a moved checkpoint or a re-billed wait that the
// phase totals of the resilient goldens would average away.
var resilientTimelineCases = []struct {
	s          Strategy
	sync       bool
	att, phase string
}{
	{MW, false,
		"321985f743b3c2cd32ce6e845917118d77a3eb6b0c44618846540498b8f5b4fe",
		"95564cb97ad260907ab3e6a39a8bab15789212095d781a6dfae6e25f03c4089b"},
	{MW, true,
		"6a4158367e85ed00cafc83e7ab360fa7bc66945393633f6fc8d36359d374f731",
		"8417b6d0518ae80318b5ad7da0ebe039ace8b55c50d4c72fc9cb4d15d0259ed4"},
	{WWPosix, false,
		"4fdca5a48528dcff1ddaf2fcc987793eff9ef735efb9403df8888cccdd9b72e7",
		"eaaffd543cfb250e06868df47d7aecca37d7b1c50696cb89557ccd36262b58ab"},
	{WWPosix, true,
		"7c1dfe34ea7fdd9cfa31bdc95377023cc0c3f037ec1612024762767a5732b0ab",
		"29d53f45c4ab1052c54771910fac983b7f81c01db634d320e388bfc7dd1378f0"},
	{WWList, false,
		"bf3084937dfa11acb1a97bab1e769f9b17a657a7593f9e04072c19c24623729a",
		"2a41a8e764d3529cfa6aae6daaf7744fba394a9e8043f98ced9a774391c11c87"},
	{WWList, true,
		"8a04854a3b930e60db916a4981f04a521b8b8b2aafc1d61d851b71394ca3b019",
		"7486822be7c078e184ad856d69fcb65ebba63ebf5c30c37d819f3962c5ebfffe"},
	{WWColl, false,
		"72011dbf543aa268d66ff56a3e0f58026789a491d7e8ede265c208786266c524",
		"36ff5fd7a3853c47883d2ebde52247c787ef2012de860c858fba69a514d82c47"},
	{WWColl, true,
		"287fe3a934e98c636466b107d1c466c2d003897861d3e4a28a0bfe8d1e963a62",
		"bab2579776a84307d5bb45df1069d5c90456a47ab94de931543960b2541e839e"},
}

func TestResilientTimelineGolden(t *testing.T) {
	plan, err := fault.Parse(attributionFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range resilientTimelineCases {
		t.Run(fmt.Sprintf("%s/sync=%v", tc.s, tc.sync), func(t *testing.T) {
			cfg := causalConfig(tc.s, tc.sync)
			cfg.FaultPlan = plan
			cfg.Causal = causal.NewRecorder()
			tr := trace.New()
			cfg.Sink = tr
			rep := mustRun(t, cfg)
			att := rep.Attribution
			var b strings.Builder
			fmt.Fprintf(&b, "bycat=%v end=%s\n", att.ByCat, att.EndProc)
			for _, st := range att.Steps {
				fmt.Fprintf(&b, "%+v\n", st)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != tc.att {
				t.Errorf("critical path drifted:\n got %s\nwant %s", got, tc.att)
			}
			b.Reset()
			for _, e := range tr.Events() {
				fmt.Fprintf(&b, "%+v\n", e)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != tc.phase {
				t.Errorf("phase timeline drifted:\n got %s\nwant %s", got, tc.phase)
			}
		})
	}
}
