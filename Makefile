# Build/test/race/vet targets for the S3aSim reproduction. `make check`
# is the PR gate: the parallel sweep executor and the workload cache must
# stay race-clean.

GO ?= go

.PHONY: build test short race fuzz vet destest-guard bench bench-quick bench-kernel bench-scale bench-readback bench-adaptive perfbench-build perfbench-test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The sweep executor, workload cache, engine, fault layer, the serving
# traffic generator, the file-system and ROMIO layers (shared by the
# verified read path), the adaptive controller, the shared
# observability sinks/registry under concurrent cells, the DES kernel
# and MPI layer every rank's state machine runs on, and the test adapter
# that hands control between the kernel and a straight-line body's
# goroutine.
race:
	$(GO) test -race ./internal/obs/ ./internal/experiments/ ./internal/search/ ./internal/core/ ./internal/fault/ ./internal/causal/ ./internal/serve/ ./internal/pvfs/ ./internal/romio/ ./internal/adapt/ ./internal/des/ ./internal/mpi/ ./internal/des/destest/

# A short pass over every fuzz target: the chaos-spec parser, the pvfs
# descriptor extent map, the FASTA reader, the seekable payload content,
# the lazily seeded substream source against math/rand and the DES
# calendar's pop order against a reference list (longer sessions: raise
# -fuzztime).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 15s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzExtentMap$$' -fuzztime 15s ./internal/pvfs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFASTA$$' -fuzztime 15s ./internal/bio/
	$(GO) test -run '^$$' -fuzz '^FuzzContent$$' -fuzztime 15s ./internal/search/
	$(GO) test -run '^$$' -fuzz '^FuzzSource$$' -fuzztime 15s ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzCalendar$$' -fuzztime 15s ./internal/des/

vet:
	$(GO) vet ./...

# internal/des/destest runs straight-line test bodies on goroutines; it is
# test support only. Fail if any non-test package of the module imports it
# (.Imports lists non-test imports only), so the run path keeps one
# process form: des.Machine.
destest-guard:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | \
		awk '{ for (i = 2; i <= NF; i++) if ($$i == "s3asim/internal/des/destest") print $$1 }'); \
	if [ -n "$$bad" ]; then echo "non-test packages import s3asim/internal/des/destest:" $$bad >&2; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

bench-quick:
	S3ASIM_BENCH_SCALE=quick $(GO) test -bench=. -benchmem -benchtime=1x

# Kernel fast-path micro-benchmarks (DESIGN.md §11): calendar throughput,
# process switches, Signal wake/broadcast, timed-wait re-arm, the MPI
# layer riding on them, the adaptive controller's decision path
# (DESIGN.md §16), payload fill throughput, the capture path's
# descriptor store, in-place verifier and romio read ops (DESIGN.md §14),
# the romio write ops (individual per method, collective two-phase and
# list-sync), substream seeding and long-stream draws (DESIGN.md §6), the metrics
# registry's string and handle paths with and without windows, including
# one pvfs request's five calls (DESIGN.md §8), the causal recorder's
# three hot recording calls (DESIGN.md §10), and one
# resilient-master wake with nothing due (DESIGN.md §9). The core
# pattern names that one benchmark: internal/core also holds the
# minute-long BenchmarkScaleWorkers. The steady-state paths must stay
# 0 allocs/op; the romio ops still allocate (ROADMAP item 9).
bench-kernel:
	$(GO) test -run '^$$' -bench '^BenchmarkRMasterIdleWake$$' -benchmem -benchtime=1s ./internal/core/
	$(GO) test -bench=. -benchmem -benchtime=1s ./internal/des/ ./internal/mpi/ ./internal/adapt/ ./internal/search/ ./internal/pvfs/ ./internal/romio/ ./internal/stats/ ./internal/obs/ ./internal/causal/

# Rank-scaling benchmark (DESIGN.md §12): 1k/10k/100k-rank cells on the
# FSM worker engine, reporting events/sec and peak memory per rank. The
# 100k cell holds a ~1.3 GB heap and takes about a minute.
bench-scale:
	$(GO) test -bench BenchmarkScaleWorkers -benchmem -benchtime=1x -run xxx ./internal/core/

# The verified read path: mixed GET/PUT sweep plus the readback-under-chaos
# battery. Exits nonzero on any content mismatch.
bench-readback:
	$(GO) run ./cmd/s3abench -suite readback -quick -quiet

# Closed-loop adaptive I/O (DESIGN.md §16): the controller against every
# static strategy across five regimes. Exits nonzero if the controller
# loses to the best static anywhere or fails to strictly win a mixed
# regime.
bench-adaptive:
	$(GO) run ./cmd/s3abench -suite adaptive -quick -quiet

# The benchmark (perfbench/) is its own Go module, so ./... never builds
# it: compile and vet it here so a core/romio API change that breaks the
# benchmark fails the gate.
perfbench-build:
	$(GO) -C perfbench build -o /dev/null ./...
	$(GO) -C perfbench vet ./...

# The benchmark's own goldens: every cell's virtual-time fingerprint at
# benchmark scale (the chaos cells pin the resilient protocol's event
# order) and a held-out seed. TestLayerSplit stays out until its
# expectations are fixed inside perfbench/ (ROADMAP item 1).
perfbench-test:
	$(GO) -C perfbench test -run 'TestGolden|TestHeldOutSeed'

check: build vet destest-guard test race perfbench-build perfbench-test
