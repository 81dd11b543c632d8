package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/obs"
	"s3asim/internal/trace"
)

var updateServeGolden = flag.Bool("update-serve-golden", false,
	"rewrite the serve Perfetto golden file")

// serveTraceRun executes a tiny deterministic serve run with a tracer
// attached and returns the recorded timeline (engine phases plus the
// post-run per-query lifecycle tracks).
func serveTraceRun(t *testing.T) []trace.Event {
	t.Helper()
	cfg := serveConfig(des.Millisecond)
	cfg.Strategy = WWColl
	cfg.QuerySync = true
	tr := trace.New()
	cfg.Sink = tr
	mustRun(t, cfg)
	return tr.Events()
}

// A serving run's Perfetto export must carry one thread per query in
// addition to the rank threads, with the five lifecycle slices and the
// completion marker — byte-stable against the committed golden file.
func TestServePerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, serveTraceRun(t)); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "serve_perfetto_golden.json")
	if *updateServeGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run ServePerfettoGolden -update-serve-golden` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serve perfetto export drifted from golden file (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}

// Schema contract for the per-query tracks: every query gets a thread_name
// metadata record, its lifecycle slices are well-formed "X" events with
// non-negative durations, and the completion marker is a thread-scoped
// instant.
func TestServePerfettoQueryTracksSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, serveTraceRun(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	queryThreads := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			if name, _ := args["name"].(string); strings.HasPrefix(name, "query") {
				queryThreads[ev["tid"].(float64)] = true
			}
		}
	}
	if len(queryThreads) != 6 {
		t.Fatalf("got %d query threads, want 6", len(queryThreads))
	}
	slices := map[string]int{}
	instants := 0
	for _, ev := range doc.TraceEvents {
		tid, _ := ev["tid"].(float64)
		if !queryThreads[tid] {
			continue
		}
		switch ev["ph"] {
		case "X":
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("query slice with bad dur: %v", ev)
			}
			slices[ev["name"].(string)]++
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("completion marker not thread-scoped: %v", ev)
			}
			instants++
		case "M":
		default:
			t.Fatalf("unexpected event on query thread: %v", ev)
		}
	}
	if instants != 6 {
		t.Fatalf("got %d completion markers, want 6", instants)
	}
	// Every query executes and flushes; Admission/Queued/Write Wait spans
	// may be zero-length (skipped) for some queries but must appear for at
	// least one under a 1ms arrival gap.
	for _, name := range []string{"Execute", "Flush"} {
		if slices[name] != 6 {
			t.Fatalf("span %q on %d of 6 queries", name, slices[name])
		}
	}
	if slices["Queued"] == 0 && slices["Admission"] == 0 && slices["Write Wait"] == 0 {
		t.Fatal("no queue/admission spans recorded at all")
	}
}

// The serve lifecycle states must each get a distinct legend rune alongside
// the engine's phase states (the historical first-letter collapse).
func TestServeStateRunesUnique(t *testing.T) {
	events := serveTraceRun(t)
	runes := trace.StateRunes(events)
	names := map[string]bool{}
	for _, e := range events {
		if !e.Point {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"Admission", "Queued", "Execute", "Write Wait", "Flush"} {
		if !names[want] {
			// Zero-length spans are legitimately skipped; require the core
			// execution states at minimum.
			if want == "Execute" || want == "Flush" || want == "Queued" {
				t.Fatalf("state %q missing from serve timeline", want)
			}
			continue
		}
		if _, ok := runes[want]; !ok {
			t.Fatalf("state %q has no legend rune", want)
		}
	}
	seen := map[byte]string{}
	for name, r := range runes {
		if r == '?' {
			continue
		}
		if prev, dup := seen[r]; dup {
			t.Fatalf("states %q and %q share rune %q", prev, name, r)
		}
		seen[r] = name
	}
}
