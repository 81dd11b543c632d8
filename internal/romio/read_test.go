package romio

import (
	"bytes"
	"reflect"
	"testing"

	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

func TestReadSegsAllMethodsReturnWrittenBytes(t *testing.T) {
	segs := sparseSegs(7, 9, 45, 30)
	for _, m := range []Method{Posix, ListIO, DataSieve} {
		e := newEnv(t, 1, DefaultHints())
		var got [][]pvfs.Segment
		e.w.Spawn(0, "r0", func(r *mpi.Rank) {
			e.f.WriteSegs(r, segs)
			got = e.f.ReadSegs(r, m, segs)
		})
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != len(segs) {
			t.Fatalf("%v: %d results for %d segments", m, len(got), len(segs))
		}
		for i, s := range segs {
			if !pvfs.AllPlaced(got[i], s.Offset, s.Length) {
				t.Fatalf("%v: segment %d read back as %v", m, i, got[i])
			}
			if !bytes.Equal(bytesOf(got[i]), pattern(s.Offset, s.Length)) {
				t.Fatalf("%v: segment %d exports the wrong bytes", m, i)
			}
		}
	}
}

// TestReadSegsZeroFillsHoles reads a range that was never written plus one
// spanning written and unwritten bytes: every method must agree with the
// file's sparse semantics (holes read back as Zero pieces).
func TestReadSegsZeroFillsHoles(t *testing.T) {
	written := pvfs.Segment{Offset: 100, Length: 50, Src: 777}
	reads := []pvfs.Segment{
		{Offset: 0, Length: 40},   // pure hole
		{Offset: 80, Length: 100}, // hole + extent + hole
		{Offset: 120, Length: 10}, // interior
	}
	zero := func(off, n int64) pvfs.Segment { return pvfs.Segment{Offset: off, Length: n, Src: pvfs.Zero} }
	want := [][]pvfs.Segment{
		{zero(0, 40)},
		{zero(80, 20), written, zero(150, 30)},
		{{Offset: 120, Length: 10, Src: 797}},
	}
	for _, m := range []Method{Posix, ListIO, DataSieve} {
		e := newEnv(t, 1, DefaultHints())
		var got [][]pvfs.Segment
		e.w.Spawn(0, "r0", func(r *mpi.Rank) {
			e.f.WriteSegs(r, []pvfs.Segment{written})
			got = e.f.ReadSegs(r, m, reads)
		})
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: read %v, want %v", m, got, want)
		}
	}
}

// TestReadSegsSieveSmallBuffer forces multiple sieve windows and carries
// (segments larger than the buffer) on the read path.
func TestReadSegsSieveSmallBuffer(t *testing.T) {
	h := DefaultHints()
	h.SieveBufferSize = 64
	segs := []pvfs.Segment{
		placed(0, 200),   // 4 windows
		placed(300, 30),  // own window
		placed(340, 100), // carries past 2 windows
	}
	e := newEnv(t, 1, h)
	var got [][]pvfs.Segment
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteSegs(r, segs)
		got = e.f.ReadSegs(r, DataSieve, segs)
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		if want := []pvfs.Segment{s}; !reflect.DeepEqual(got[i], want) {
			t.Fatalf("segment %d: sieve read %v, want %v", i, got[i], want)
		}
	}
}

// TestCollectiveReadImage writes interleaved segments with a collective
// round, then reads them back with a collective read round: every rank must
// get exactly its own contribution, under both collective methods.
func TestCollectiveReadImage(t *testing.T) {
	for _, cm := range []CollMethod{TwoPhase, ListSync} {
		const n = 4
		h := DefaultHints()
		h.CollWriteMethod = cm
		e := newEnv(t, n, h)
		g := e.f.NewGroup([]int{0, 1, 2, 3})
		const segSize = 50
		perRank := make([][]pvfs.Segment, n)
		for i := 0; i < 32; i++ {
			off := int64(i) * segSize
			perRank[i%n] = append(perRank[i%n],
				placed(off, segSize))
		}
		got := make([][][]pvfs.Segment, n)
		for rk := 0; rk < n; rk++ {
			rk := rk
			e.w.Spawn(rk, "r", func(r *mpi.Rank) {
				g.WriteAll(r, perRank[rk])
				got[rk] = readAll(g, r, perRank[rk])
			})
		}
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", cm, err)
		}
		for rk := 0; rk < n; rk++ {
			for i, s := range perRank[rk] {
				if !pvfs.AllPlaced(got[rk][i], s.Offset, s.Length) {
					t.Fatalf("%v: rank %d segment %d mismatch", cm, rk, i)
				}
			}
		}
	}
}

// TestCollectiveReadEmptyContributor checks that ranks with nothing to read
// still participate in (and are released from) the round.
func TestCollectiveReadEmptyContributor(t *testing.T) {
	const n = 3
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	seg := placed(0, 100)
	var got [][]pvfs.Segment
	done := 0
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			var segs []pvfs.Segment
			if rk == 1 {
				segs = []pvfs.Segment{seg}
			}
			g.WriteAll(r, segs)
			res := readAll(g, r, segs)
			if rk == 1 {
				got = res
			}
			done++
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if len(got) != 1 || !pvfs.AllPlaced(got[0], seg.Offset, seg.Length) {
		t.Fatal("reading rank got wrong content")
	}
}

// TestInterleavedWriteReadRounds alternates collective write and read rounds:
// the separate read-round state and tag space must keep them from
// cross-matching.
func TestInterleavedWriteReadRounds(t *testing.T) {
	const n = 3
	const rounds = 3
	const segSize = 40
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	mismatches := 0
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			for round := 0; round < rounds; round++ {
				off := int64(round*n+rk) * segSize
				segs := []pvfs.Segment{placed(off, segSize)}
				g.WriteAll(r, segs)
				got := readAll(g, r, segs)
				if len(got) != 1 || !pvfs.AllPlaced(got[0], off, segSize) {
					mismatches++
				}
			}
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if mismatches != 0 {
		t.Fatalf("%d read mismatches across interleaved rounds", mismatches)
	}
}

// irregularSegs returns segments with uneven lengths and gaps, none aligned
// to the strip, sieve or domain sizes the tests below use.
func irregularSegs(n int) []pvfs.Segment {
	var segs []pvfs.Segment
	off := int64(5)
	for i := 0; i < n; i++ {
		size := int64(23 + (i*37)%110)
		segs = append(segs, placed(off, size))
		off += size + int64(3+(i*11)%29)
	}
	return segs
}

// allPieces reports whether every segment's pieces tile it and carry the
// content of their own offsets.
func allPieces(segs []pvfs.Segment, got [][]pvfs.Segment) bool {
	if len(got) != len(segs) {
		return false
	}
	for i, s := range segs {
		if !pvfs.AllPlaced(got[i], s.Offset, s.Length) {
			return false
		}
	}
	return true
}

// TestDescriptorsStayPlaced checks the descriptor arithmetic of every romio
// data-movement step: after sieve writes and sieve-read extraction through
// a sieve buffer that divides none of the segments, and after a two-phase
// collective write and read with an odd cb_nodes, every piece read back
// has Src == Offset. An offset slip anywhere in those steps leaves a piece
// whose Src is off by the slip.
func TestDescriptorsStayPlaced(t *testing.T) {
	segs := irregularSegs(24)
	last := segs[len(segs)-1]

	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 96
	e := newEnv(t, 1, h)
	got := map[Method][][]pvfs.Segment{}
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteSegs(r, segs)
		for _, m := range []Method{Posix, ListIO, DataSieve} {
			got[m] = e.f.ReadSegs(r, m, segs)
		}
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if !e.f.PV().Placed(s.Offset, s.Length) {
			t.Fatalf("sieve write misplaced [%d,+%d): %v", s.Offset, s.Length,
				e.f.PV().ReadBack(s.Offset, s.Length))
		}
	}
	// The sieve write filled the gaps between segments with zeros read
	// back from the holes; no byte may carry content from elsewhere.
	for _, p := range e.f.PV().ReadBack(0, last.End()) {
		if p.Src != pvfs.Zero && !p.Placed() {
			t.Fatalf("sieve write stored misplaced piece %v", p)
		}
	}
	for m, g := range got {
		if !allPieces(segs, g) {
			t.Fatalf("%v read: pieces not placed: %v", m, g)
		}
	}

	for _, cm := range []CollMethod{TwoPhase, ListSync} {
		const n = 5
		h := DefaultHints()
		h.CollWriteMethod = cm
		h.CBNodes = 3
		e := newEnv(t, n, h)
		ranks := []int{0, 1, 2, 3, 4}
		g := e.f.NewGroup(ranks)
		perRank := make([][]pvfs.Segment, n)
		for i, s := range segs {
			perRank[(i*3)%n] = append(perRank[(i*3)%n], s)
		}
		reads := make([][][]pvfs.Segment, n)
		for _, rk := range ranks {
			rk := rk
			e.w.Spawn(rk, "r", func(r *mpi.Rank) {
				g.WriteAll(r, perRank[rk])
				reads[rk] = readAll(g, r, perRank[rk])
			})
		}
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", cm, err)
		}
		for rk := range ranks {
			if !allPieces(perRank[rk], reads[rk]) {
				t.Fatalf("%v: rank %d read pieces not placed: %v", cm, rk, reads[rk])
			}
			for _, s := range perRank[rk] {
				if !e.f.PV().Placed(s.Offset, s.Length) {
					t.Fatalf("%v: collective write misplaced [%d,+%d)", cm, s.Offset, s.Length)
				}
			}
		}
	}
}
