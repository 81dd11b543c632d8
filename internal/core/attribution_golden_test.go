package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// This block pins the causal recorder's whole output byte for byte: the
// run's critical path (Report.Attribution with every step), CausalTotals,
// the recorded process set, the Perfetto flow events, the serving
// per-query windowed walks and the adaptive controller's per-arm
// attribution. The engine goldens pin virtual time only; these cells cover
// the recording and walking paths a change to internal/causal could move.

// attributionFingerprint hashes the JSON of v.
func attributionFingerprint(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal attribution: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// causalOutput is what every cell hashes: the whole-run walk, the totals
// and the recorder's process set and size.
type causalOutput struct {
	Attribution *causal.Attribution
	Totals      causal.Breakdown
	Procs       []string
	Intervals   int
}

func runCausal(t *testing.T, cfg Config, flows bool) (*Report, *causal.Recorder, causalOutput) {
	t.Helper()
	rec := causal.NewRecorder()
	rec.SetCaptureFlows(flows)
	cfg.Causal = rec
	rep := mustRun(t, cfg)
	if err := rep.Attribution.Check(); err != nil {
		t.Fatal(err)
	}
	return rep, rec, causalOutput{rep.Attribution, rep.CausalTotals, rec.Procs(), rec.Intervals()}
}

func TestAttributionGolden(t *testing.T) {
	cases := []struct {
		name string
		hash string
		out  func(t *testing.T) any
	}{
		// The perfbench chaos cell's shape: crashes that restart, so a
		// respawned incarnation extends its predecessor's timeline.
		{name: "chaos_shape", hash: "b00c660a2ad926894e9ce1114e572410438af2ced5b9fbfabc6019ca018274a5",
			out: func(t *testing.T) any {
				rep, _, out := runCausal(t, chaosShapeCell(t), false)
				if c := rep.Metrics.Counters; c["fault.crashes"] == 0 || c["fault.workers_rejoined"] == 0 {
					t.Fatalf("chaos cell: %d crashes, %d rejoins; want both", c["fault.crashes"], c["fault.workers_rejoined"])
				}
				return out
			}},
		{name: "chaos_shape_flows", hash: "ed1337cd82cf10ad823087adb9eb61c5a2130f2004bf1e952624c165043354f3",
			out: func(t *testing.T) any {
				_, rec, out := runCausal(t, chaosShapeCell(t), true)
				if len(rec.Flows()) == 0 {
					t.Fatal("no flows captured")
				}
				return struct {
					causalOutput
					Flows any
				}{out, rec.FlowEvents()}
			}},
		{name: "WW-Coll_sync_fault", hash: "d053d4184b4115f7da3e38befeb59266ce21e3fb4f25a92df230dbf547faae5e",
			out: func(t *testing.T) any {
				cfg := goldenConfig()
				cfg.Strategy = WWColl
				cfg.QuerySync = true
				cfg.Resilient = true
				cfg.FaultPlan = goldenFaultPlan()
				_, _, out := runCausal(t, cfg, false)
				return out
			}},
		// One backward walk per query from the process that completed its
		// durable write, as the serving sweep's tail bands do.
		{name: "serve_per_query", hash: "0a8cb259bab14107709851e858fd664fb3195b3f5d2c54d414644bcf0b0b7a9e",
			out: func(t *testing.T) any {
				rep, rec, out := runCausal(t, serveConfig(2*des.Millisecond), false)
				walks := make([]*causal.Attribution, 0, len(rep.Queries))
				for _, q := range rep.Queries {
					att := rec.CriticalPathBetween(q.Proc, q.Arrival, q.Done)
					if err := att.Check(); err != nil {
						t.Fatal(err)
					}
					walks = append(walks, att)
				}
				return struct {
					causalOutput
					Walks []*causal.Attribution
				}{out, walks}
			}},
		{name: "adaptive_arms", hash: "48786c692183f4966996afc413bc2efe00bcb93df1b47415615284a10947de0e",
			out: func(t *testing.T) any {
				cfg := goldenConfig()
				cfg.Adaptive = &AdaptiveConfig{Gamma: 0.05}
				rep, _, out := runCausal(t, cfg, false)
				return struct {
					causalOutput
					Arms    []string
					ArmAttr []causal.Breakdown
				}{out, rep.Adaptive.Arms, rep.Adaptive.ArmAttr}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := attributionFingerprint(t, tc.out(t)); got != tc.hash {
				t.Errorf("attribution fingerprint drifted:\n got %s\nwant %s", got, tc.hash)
			}
		})
	}
}
