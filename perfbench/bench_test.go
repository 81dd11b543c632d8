package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"s3asim/internal/core"
	"s3asim/internal/des"
)

// heldOutSeed is a second seed every workload must run clean on. It was
// not used while the workloads were sized, so later claims checked on it
// are checked on inputs they were not tuned to.
const heldOutSeed = 424242

// goldenLine formats one cell's golden.txt line.
func goldenLine(workload, cell string, rep *core.Report) string {
	return fmt.Sprintf("%s/%s %.6f %s", workload, cell, rep.Overall.Seconds(), fingerprintHash(fingerprint(rep)))
}

// flatNanos sums CPU nanoseconds per leaf function — pprof's "flat" column.
func (p *cpuProfile) flatNanos() map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		leaf := "?"
		if len(s.frames) > 0 {
			leaf = s.frames[0]
		}
		out[leaf] += s.nanos
	}
	return out
}

// totals returns the sample count and CPU nanoseconds over all samples.
func (p *cpuProfile) totals() (count, nanos int64) {
	for _, s := range p.samples {
		count += s.count
		nanos += s.nanos
	}
	return count, nanos
}

var update = flag.Bool("update", false, "rewrite golden.txt from the default-seed warm-up passes")

// newBench sets a workload up at seed and runs its warm-up pass.
func newBench(t *testing.T, w *workload, seed int64) (*bench, passResult) {
	t.Helper()
	b := &bench{w: w, sim: des.New(), cells: w.build(w.inputSeed(seed))}
	return b, b.warmUp(seed)
}

func requireClean(t *testing.T, b *bench) {
	t.Helper()
	if b.failed > 0 || len(b.failures) > 0 {
		t.Fatalf("%d of %d cells failed:\n%s", b.failed, b.attempted, strings.Join(b.failures, "\n"))
	}
}

// TestGolden pins every cell's default-seed fingerprint (and, for batch,
// the Figure 2 rows). With -update it rewrites golden.txt instead.
func TestGolden(t *testing.T) {
	lines := []string{strings.SplitN(goldenText, "\n", 2)[0]}
	for _, w := range workloads {
		b, warm := newBench(t, w, defaultSeed)
		for i, c := range b.cells {
			if rep := warm.reps[i]; rep != nil {
				lines = append(lines, goldenLine(w.name, c.name, rep))
			}
		}
		if !*update {
			requireClean(t, b)
		}
	}
	if *update {
		if err := os.WriteFile("golden.txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeldOutSeed runs every workload clean, and deterministic across
// passes on the reused kernel, at a seed other than the default.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, _ := newBench(t, w, heldOutSeed)
			b.pass(false)
			requireClean(t, b)
		})
	}
}

// TestLayerSplit profiles two passes of every workload and checks the trace
// reader: the layer buckets account for every sample, per-function flat
// totals agree with `go tool pprof -top`, and the largest layer is the one
// each workload was chosen to load.
func TestLayerSplit(t *testing.T) {
	dominant := map[string][]string{
		"batch":  {"pvfs", "des"},
		"verify": {"search", "core"},
		"chaos":  {"core"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, _ := newBench(t, w, defaultSeed)
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				t.Fatal(err)
			}
			b.pass(false)
			b.pass(false)
			pprof.StopCPUProfile()
			requireClean(t, b)
			p, err := parseCPUProfile(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			count, nanos := p.totals()
			if count < 50 {
				t.Fatalf("only %d samples", count)
			}
			var sum int64
			top, topNanos := "", int64(-1)
			for l, n := range p.layerNanos() {
				if !contains(layers, l) {
					t.Errorf("sample attributed to unknown layer %q", l)
				}
				sum += n
				if n > topNanos {
					top, topNanos = l, n
				}
			}
			if sum != nanos {
				t.Errorf("layer buckets sum to %d ns, profile total %d ns", sum, nanos)
			}
			t.Logf("%s: %d samples, top layer %s (%.0f%%)", w.name, count, top, 100*float64(topNanos)/float64(nanos))
			if !contains(dominant[w.name], top) {
				t.Errorf("largest layer is %s, want one of %v", top, dominant[w.name])
			}

			file := filepath.Join(t.TempDir(), "cpu.pprof")
			if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			compareWithPprof(t, file, p)
		})
	}
}

// compareWithPprof checks the decoder's per-function flat totals against
// `go tool pprof -top` on the same profile file.
func compareWithPprof(t *testing.T, file string, p *cpuProfile) {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(gobin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", file).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for fn, n := range p.flatNanos() {
		if n != 0 {
			want[fn] = float64(n) / 1e6
		}
	}
	if len(got) != len(want) {
		t.Errorf("pprof lists %d functions with flat time, the decoder %d", len(got), len(want))
	}
	for fn, ms := range want {
		if got[fn] != ms {
			t.Errorf("%s: pprof flat %gms, decoder %gms", fn, got[fn], ms)
		}
	}
}

// parsePprofTop reads the flat column of `pprof -top -unit=ms` output into
// milliseconds per function, skipping functions with no flat time.
func parsePprofTop(out []byte) (map[string]float64, error) {
	res := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		if ms != 0 {
			// The function name is everything after the five numeric
			// columns; it may contain spaces (e.g. " (inline)").
			name := strings.Join(f[5:], " ")
			name = strings.TrimSuffix(name, " (inline)")
			res[name] += ms
		}
	}
	if !inTable {
		return nil, fmt.Errorf("no table in pprof output:\n%s", out)
	}
	return res, sc.Err()
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
