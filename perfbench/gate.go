package main

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"s3asim/internal/core"
)

// fingerprint renders every virtual-time output of a run that the gate
// pins: the overall time, master and worker-average phase breakdowns,
// file-system totals, kernel and network counts, and the readback, fault
// and adaptive counters. Two runs of one cell on one seed must agree on it
// exactly, pass after pass, on the reused kernel.
func fingerprint(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overall=%d master=%d avg=%d ", rep.Overall, rep.Master.Phases, rep.WorkerAvg.Phases)
	fs := rep.FS
	fmt.Fprintf(&b, "fs=%d/%d/%d/%d/%d ", fs.TotalRequests, fs.TotalSegments, fs.TotalBytes, fs.TotalSyncs, fs.TotalBusy)
	fmt.Fprintf(&b, "events=%d msgs=%d net=%d cov=%d ", rep.Events, rep.Messages, rep.NetBytes, rep.FileCoverage)
	fmt.Fprintf(&b, "rb=%d/%d/%d/%d ", rep.ReadbackReads, rep.ReadbackExtents, rep.ReadbackBytes, rep.ReadbackMismatches)
	var names []string
	for k := range rep.Metrics.Counters {
		if strings.HasPrefix(k, "fault.") || strings.HasPrefix(k, "adapt.") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d ", k, rep.Metrics.Counters[k])
	}
	if ad := rep.Adaptive; ad != nil {
		fmt.Fprintf(&b, "adapt=%d/%d/%v/%v ", ad.Switches, ad.Epochs, ad.Assigned, ad.BatchArms)
	}
	if rep.Windows != nil {
		fmt.Fprintf(&b, "windows=%d alerts=%d", len(rep.Windows.Windows), len(rep.Alerts))
	}
	return b.String()
}

// fingerprintHash is the compact form committed in golden.txt.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkReport applies the per-cell correctness gate and returns every
// violation (nil when the cell passed). want is the cell's fingerprint from
// the warm-up pass, or "" on the warm-up pass itself.
func (w *workload) checkReport(rep *core.Report, runErr error, want string) []string {
	if runErr != nil {
		return []string{"run: " + runErr.Error()}
	}
	var bad []string
	if rep.FileCoverage != rep.OutputBytes {
		bad = append(bad, fmt.Sprintf("file coverage %d != output bytes %d", rep.FileCoverage, rep.OutputBytes))
	}
	if rep.OverlappedBytes != 0 {
		bad = append(bad, fmt.Sprintf("%d bytes written more than once", rep.OverlappedBytes))
	}
	if w.readback {
		if !rep.Verified {
			bad = append(bad, "output image not verified")
		}
		if rep.ReadbackMismatches != 0 || rep.ReadbackExtents == 0 {
			bad = append(bad, fmt.Sprintf("readback: %d mismatches over %d extents", rep.ReadbackMismatches, rep.ReadbackExtents))
		}
	}
	if w.causal {
		if rep.Attribution == nil {
			bad = append(bad, "no critical-path attribution")
		} else if err := rep.Attribution.Check(); err != nil {
			bad = append(bad, "attribution: "+err.Error())
		}
		if rep.Windows == nil {
			bad = append(bad, "no telemetry windows")
		} else if err := rep.Windows.Conserve(rep.Metrics); err != nil {
			bad = append(bad, "windows: "+err.Error())
		}
	}
	if want != "" && fingerprint(rep) != want {
		bad = append(bad, "virtual-time fingerprint differs from the warm-up pass")
	}
	return bad
}

//go:embed golden.txt
var goldenText string

// golden parses golden.txt: one "workload/cell overall_s hash" line per
// cell, the default-seed fingerprints.
func golden() map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(goldenText, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && !strings.HasPrefix(line, "#") {
			out[f[0]] = f[2]
		}
	}
	return out
}

// figure2 is the 64-process row of both Figure 2 tables in
// results/paper-scale-figures.txt, in seconds as printed there.
var figure2 = map[string]string{
	"MW/no-sync": "146.65", "MW/sync": "149.02",
	"WW-POSIX/no-sync": "41.87", "WW-POSIX/sync": "66.93",
	"WW-List/no-sync": "29.98", "WW-List/sync": "51.64",
	"WW-Coll/no-sync": "70.13", "WW-Coll/sync": "73.32",
}

// checkDefaultSeed compares one cell's warm-up report against golden.txt
// and, for batch, against Figure 2, and returns every violation.
func (w *workload) checkDefaultSeed(gold map[string]string, cell string, rep *core.Report) []string {
	var bad []string
	key := w.name + "/" + cell
	if got := fingerprintHash(fingerprint(rep)); gold[key] != got {
		bad = append(bad, fmt.Sprintf("fingerprint %s, golden %q", got, gold[key]))
	}
	if w.name == "batch" {
		if got := fmt.Sprintf("%.2f", rep.Overall.Seconds()); got != figure2[cell] {
			bad = append(bad, fmt.Sprintf("overall %s s, Figure 2 has %s s", got, figure2[cell]))
		}
	}
	return bad
}
