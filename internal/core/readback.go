package core

import (
	"errors"
	"fmt"

	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
	"s3asim/internal/romio"
)

// This file is the verified read path (DESIGN.md §14): end-to-end content
// verification in the style of s3bench. File content is a stream addressed
// by offset (its bytes, search.Workload.FillContent, are never built on
// this path); every segment carries a descriptor of the stream range it
// holds (pvfs.Segment.Src), a writer that places its bytes correctly
// writes Src == Offset, and the file system stores the descriptors behind
// pvfs.CaptureData. Verifiers read committed extents back through a real
// read strategy (romio.ReadSegsOp / CollReadOp) and check that the pieces
// read tile each extent and each carries the content of its own offset
// (pvfs.AllPlaced) — O(pieces), not O(bytes). Offset bookkeeping
// (coverage, overlap, acks) cannot see a write that was acknowledged but
// lost, duplicated, torn, or misplaced — the descriptor check can.
//
// Everything here is nil-gated on Config.Readback: a run without it issues
// no reads and is bit-identical to builds without this file.

// ReadbackConfig enables the verified read path.
type ReadbackConfig struct {
	// Method is the ADIO read method verification reads go through:
	// romio.Posix (one contiguous read per segment), romio.ListIO (batched
	// list reads), or romio.DataSieve (whole-window reads with extraction).
	Method romio.Method
	// Collective routes in-run readback through the collective read
	// (romio.CollReadOp — two-phase or list-sync per Config.CollMethod).
	// Requires Strategy == WWColl and the non-resilient protocol; a tainted
	// collective group under recovery falls back to individual reads, so
	// resilient runs always read individually.
	Collective bool
	// InRunReads re-reads each batch's just-written segments this many
	// times immediately after the write is stamped durable — the GET share
	// of a mixed GET/PUT workload (9 reads per write ≈ 90/10, 1 ≈ 50/50).
	InRunReads int
	// PostRun makes each group master read every committed result extent
	// of its query range back after the final synchronization (after the
	// resilient shutdown handshake) and verify it — the 100% GET pass.
	PostRun bool
}

// validateReadback checks the readback configuration against the rest of
// the run.
func (c *Config) validateReadback() error {
	rc := c.Readback
	if rc == nil {
		return nil
	}
	if !c.CaptureData {
		return errors.New("core: Readback requires CaptureData (content verification needs stored content)")
	}
	if rc.InRunReads < 0 {
		return errors.New("core: Readback.InRunReads must be non-negative")
	}
	if !rc.PostRun && rc.InRunReads == 0 {
		return errors.New("core: Readback enables neither post-run nor in-run reads")
	}
	switch rc.Method {
	case romio.Posix, romio.ListIO, romio.DataSieve:
	default:
		return fmt.Errorf("core: unknown readback method %v", rc.Method)
	}
	if rc.Collective {
		if c.Strategy != WWColl {
			return errors.New("core: Readback.Collective requires the WW-Coll strategy")
		}
		if c.resilient() {
			return errors.New("core: Readback.Collective is incompatible with the resilient protocol (reads fall back to individual)")
		}
	}
	if c.Serve != nil {
		return errors.New("core: Readback is incompatible with serving runs")
	}
	if c.indMethod() == romio.DataSieve && c.Strategy.WorkerWriting() {
		return errors.New("core: Readback is incompatible with sieved writes (overlapping read-modify-write leaves content unverifiable)")
	}
	return nil
}

// readbackState accumulates verification counters for one run. The kernel
// executes one process at a time, so plain fields are safe.
type readbackState struct {
	conf       ReadbackConfig
	reads      int64 // read operations issued (in-run rounds + post-run batches)
	extents    int64 // extents checked
	bytes      int64 // bytes read back through the read strategy
	mismatches int64 // extents whose content diverged
	firstErr   error // first mismatch, for the report error
}

// rbVerify checks one readback, extent by extent: the pieces read for each
// segment must tile it and carry the content of their own offsets. Only
// the offsets are trusted; segs[i].Src is never consulted.
func (rt *runtime) rbVerify(where string, segs []pvfs.Segment, got [][]pvfs.Segment) {
	rb := rt.rb
	rb.reads++
	for i, s := range segs {
		rb.extents++
		rb.bytes += s.Length
		var g []pvfs.Segment
		if i < len(got) {
			g = got[i]
		}
		if !pvfs.AllPlaced(g, s.Offset, s.Length) {
			rb.mismatches++
			if rb.firstErr == nil {
				rb.firstErr = fmt.Errorf("core: readback mismatch at %s: offset %d len %d",
					where, s.Offset, s.Length)
			}
			if rt.flight != nil {
				rt.flight.Trigger(fmt.Sprintf("readback mismatch at %s", where), rt.sim.Now())
			}
		}
	}
}

// rbInRunWorker is the resilient worker's in-run verifier: immediately
// after a batch write is stamped durable, re-read the just-written segments
// through the configured read strategy InRunReads times and verify each
// pass. (Resilient runs always read individually; the plain worker's
// resumable version, collective rounds included, is workerFSM.armReadback.)
func (rt *runtime) rbInRunWorker(r *mpi.Rank, pt *PhaseTimer, segs []pvfs.Segment) {
	rb := rt.rb
	if rb == nil || rb.conf.InRunReads == 0 || len(segs) == 0 {
		return
	}
	pt.Switch(PhaseIO)
	for i := 0; i < rb.conf.InRunReads; i++ {
		got := rt.file.ReadSegs(r, rb.conf.Method, segs)
		rt.rbVerify(r.Proc().Name(), segs, got)
	}
}

// rbInRunMaster is the MW in-run verifier: the master re-reads the batch
// region it just wrote and verifies it.
func (rt *runtime) rbInRunMaster(r *mpi.Rank, pt *PhaseTimer, b batch) {
	rb := rt.rb
	if rb == nil || rb.conf.InRunReads == 0 || b.Bytes == 0 {
		return
	}
	segs := []pvfs.Segment{{Offset: b.Region, Length: b.Bytes}}
	pt.Switch(PhaseIO)
	for i := 0; i < rb.conf.InRunReads; i++ {
		got := rt.file.ReadSegs(r, rb.conf.Method, segs)
		rt.rbVerify(r.Proc().Name(), segs, got)
	}
}

// rbPostRun is the end-of-run verifier: the group master reads every
// committed result extent of its query range back through the read strategy
// — batch by batch, at result granularity so list and sieve methods see the
// noncontiguous shape — and verifies every extent. Runs after the final
// barrier (non-resilient) or the shutdown handshake (resilient), when every
// batch is durable.
func (rt *runtime) rbPostRun(r *mpi.Rank, pt *PhaseTimer, g *group) {
	rb := rt.rb
	if rb == nil || !rb.conf.PostRun {
		return
	}
	pt.Switch(PhaseIO)
	for _, b := range g.batches {
		var segs []pvfs.Segment
		for q := b.LoQ; q < b.HiQ; q++ {
			for _, res := range rt.wl.Queries[q].Results {
				segs = append(segs, pvfs.Segment{Offset: res.Offset, Length: res.Size})
			}
		}
		if len(segs) == 0 {
			continue
		}
		got := rt.file.ReadSegs(r, rb.conf.Method, segs)
		rt.rbVerify(r.Proc().Name(), segs, got)
	}
}
