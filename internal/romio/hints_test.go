package romio

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

func TestMethodNames(t *testing.T) {
	if Posix.String() != "posix" || ListIO.String() != "list" || DataSieve.String() != "sieve" {
		t.Fatal("method names")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method should still render")
	}
	if TwoPhase.String() != "two-phase" || ListSync.String() != "list-sync" {
		t.Fatal("collective method names")
	}
}

func TestDefaultHints(t *testing.T) {
	h := DefaultHints()
	if h.IndWriteMethod != ListIO || h.SieveBufferSize != 512*1024 {
		t.Fatalf("defaults = %+v", h)
	}
	if h.TwoPhasePlanPerSeg <= 0 {
		t.Fatal("two-phase planning cost unset")
	}
	if h.CollWriteMethod != TwoPhase {
		t.Fatal("default collective should be two-phase (ROMIO default)")
	}
}

func TestOpenDefaultsSieveBuffer(t *testing.T) {
	sim := des.New()
	w := mpi.NewWorld(sim, 1, testNet())
	fs := pvfs.New(sim, testFS())
	var f *File
	destest.Spawn(sim, "open", func(p *des.Proc) {
		f = Open(p, w, fs, "x", Hints{IndWriteMethod: DataSieve})
		destest.Yield(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Hints().SieveBufferSize != 512*1024 {
		t.Fatalf("sieve buffer defaulted to %d", f.Hints().SieveBufferSize)
	}
	if f.PV() == nil {
		t.Fatal("PV accessor nil")
	}
}

func TestCBNodesClampedToGroup(t *testing.T) {
	e := newEnv(t, 3, Hints{CBNodes: 50, IndWriteMethod: ListIO})
	g := e.f.NewGroup([]int{0, 1, 2})
	if got := g.numAggregators(); got != 3 {
		t.Fatalf("aggregators = %d, want clamped to 3", got)
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d", g.Size())
	}
}

func TestListSyncCollectiveImage(t *testing.T) {
	h := DefaultHints()
	h.CollWriteMethod = ListSync
	e := newEnv(t, 3, h)
	g := e.f.NewGroup([]int{0, 1, 2})
	const segSize = 40
	for rk := 0; rk < 3; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			for round := 0; round < 2; round++ {
				off := int64(round*3+rk) * segSize
				writeAll(g, r, []pvfs.Segment{
					placed(off, segSize),
				})
			}
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(2 * 3 * segSize)
	if !e.f.PV().FullyCovers(total) {
		t.Fatal("list-sync collective left gaps")
	}
	if e.f.PV().OverlappedBytes() != 0 {
		t.Fatal("list-sync collective overlapped")
	}
}

func TestHintsValidate(t *testing.T) {
	if err := DefaultHints().Validate(); err != nil {
		t.Fatalf("default hints invalid: %v", err)
	}
	if err := (Hints{}).Validate(); err != nil {
		t.Fatalf("zero hints invalid: %v", err)
	}
	good := []Hints{
		{SieveBufferSize: 4096},
		{SieveBufferSize: 8 * 1024 * 1024},
		{CBNodes: 128},
		{TwoPhasePlanPerSeg: des.Millisecond},
	}
	for i, h := range good {
		if err := h.Validate(); err != nil {
			t.Errorf("good case %d (%+v): %v", i, h, err)
		}
	}
	bad := []Hints{
		{CBNodes: -1},
		{SieveBufferSize: 1024},  // below 4 KiB
		{SieveBufferSize: 12288}, // not a power of two
		{SieveBufferSize: -4096},
		{TwoPhasePlanPerSeg: -des.Microsecond},
		{IndWriteMethod: Method(7)},
		{CollWriteMethod: CollMethod(7)},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad case %d (%+v): Validate accepted it", i, h)
		}
	}
}

func TestSieveZeroBufferTerminates(t *testing.T) {
	// A zero/negative ind_wr_buffer_size used to arm a degenerate sieve loop:
	// winHi == winLo, so no segment ever left the carry list. The hinted path
	// clamps it to the 512 KB default; pin that the write terminates and
	// lands every byte.
	for _, size := range []int64{0, -1} {
		e := newEnv(t, 1, DefaultHints())
		const segSize = 64
		spawn(e.w, 0, "r0", func(r *mpi.Rank) {
			writeSegsHinted(e.f, r, []pvfs.Segment{
				placed(0, segSize),
				placed(2*segSize, segSize),
			}, Hints{IndWriteMethod: DataSieve, SieveBufferSize: size})
		})
		if err := e.sim.Run(); err != nil {
			t.Fatal(err)
		}
		// The sieve window spans the whole extent, so the read-modify-write
		// lands one contiguous image over it.
		if !e.f.PV().FullyCovers(3 * segSize) {
			t.Fatalf("sieve buffer %d: extent not covered", size)
		}
	}
}

func TestWriteSegsHintedOverridesMethod(t *testing.T) {
	// File opened with list I/O; the per-call override selects POSIX. The
	// POSIX path issues one file-system request per segment sequentially, so
	// it must take strictly longer than the batched list path on the same
	// segment set.
	segs := func() []pvfs.Segment {
		var s []pvfs.Segment
		for i := int64(0); i < 8; i++ {
			s = append(s, placed(i*512, 256))
		}
		return s
	}
	eList := newEnv(t, 1, DefaultHints())
	var tList des.Time
	spawn(eList.w, 0, "r0", func(r *mpi.Rank) {
		writeSegs(eList.f, r, segs())
		tList = r.Now()
	})
	if err := eList.sim.Run(); err != nil {
		t.Fatal(err)
	}
	ePosix := newEnv(t, 1, DefaultHints())
	var tPosix des.Time
	spawn(ePosix.w, 0, "r0", func(r *mpi.Rank) {
		writeSegsHinted(ePosix.f, r, segs(), Hints{IndWriteMethod: Posix})
		tPosix = r.Now()
	})
	if err := ePosix.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tPosix <= tList {
		t.Fatalf("posix override %v not slower than list default %v", tPosix, tList)
	}
}

func TestWriteAllHintedCBNodesOverride(t *testing.T) {
	// The round creator's hints decide cb_nodes for the whole round; a
	// one-aggregator override must still land a complete, non-overlapping
	// image.
	e := newEnv(t, 3, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	h := DefaultHints()
	h.CBNodes = 1
	const segSize = 48
	for rk := 0; rk < 3; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			off := int64(rk) * segSize
			writeAllHinted(g, r, []pvfs.Segment{
				placed(off, segSize),
			}, h)
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.f.PV().FullyCovers(3 * segSize) {
		t.Fatal("hinted collective left gaps")
	}
	if e.f.PV().OverlappedBytes() != 0 {
		t.Fatal("hinted collective overlapped")
	}
}

func TestForeignRankPanicsInCollective(t *testing.T) {
	e := newEnv(t, 3, DefaultHints())
	g := e.f.NewGroup([]int{0, 1})
	panicked := false
	spawn(e.w, 2, "foreign", func(r *mpi.Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		writeAll(g, r, nil)
	})
	spawn(e.w, 0, "a", func(r *mpi.Rank) { destest.Sleep(r.Proc(), des.Millisecond) })
	spawn(e.w, 1, "b", func(r *mpi.Rank) { destest.Sleep(r.Proc(), des.Millisecond) })
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("foreign rank accepted into collective")
	}
}
