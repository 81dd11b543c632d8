package romio

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

func testNet() mpi.NetConfig {
	return mpi.NetConfig{
		Latency:      10 * des.Microsecond,
		Bandwidth:    100e6,
		EagerLimit:   16 * 1024,
		ProcsPerNode: 1,
	}
}

func testFS() pvfs.Config {
	return pvfs.Config{
		NumServers:       4,
		StripSize:        64,
		RequestOverhead:  200 * des.Microsecond,
		SegmentOverhead:  20 * des.Microsecond,
		ServiceBandwidth: 100e6,
		SyncBase:         50 * des.Microsecond,
		SyncBandwidth:    100e6,
		MetaOverhead:     50 * des.Microsecond,
		NetLatency:       10 * des.Microsecond,
		CaptureData:      true,
	}
}

// env wires a world, a file system, and an open file.
type env struct {
	sim *des.Simulation
	w   *mpi.World
	fs  *pvfs.FileSystem
	f   *File
}

func newEnv(t testing.TB, ranks int, hints Hints) *env {
	t.Helper()
	sim := des.New()
	w := mpi.NewWorld(sim, ranks, testNet())
	fs := pvfs.New(sim, testFS())
	e := &env{sim: sim, w: w, fs: fs}
	destest.Spawn(sim, "open", func(p *des.Proc) {
		e.f = Open(p, w, fs, "out", hints)
		destest.Yield(p)
	})
	if !sim.RunUntil(des.Second) && e.f == nil {
		t.Fatal("open did not complete")
	}
	return e
}

// fillPattern is the test content stream: stream byte x is x mod 251.
func fillPattern(dst []byte, src int64) {
	for i := range dst {
		dst[i] = byte((src + int64(i)) % 251)
	}
}

// pattern returns the stream bytes of [off, off+n).
func pattern(off, n int64) []byte {
	b := make([]byte, n)
	fillPattern(b, off)
	return b
}

// bytesOf exports descriptor pieces as bytes (pvfs.Bytes) so tests can
// compare file images byte for byte.
func bytesOf(pieces []pvfs.Segment) []byte { return pvfs.Bytes(pieces, fillPattern) }

// placed returns a segment carrying the content of its own offset.
func placed(off, n int64) pvfs.Segment { return pvfs.Segment{Offset: off, Length: n, Src: off} }

// spawn starts rank i of w running body as straight-line code.
func spawn(w *mpi.World, i int, name string, body func(r *mpi.Rank)) {
	r := w.Rank(i)
	w.SpawnFSM(i, name, destest.Machine(func(*des.Proc) { body(r) }))
}

// The helpers below drive a resumable op to completion from a straight-line
// body: Init arms it, and Await steps it until it is done.

// writeSegs is one individual noncontiguous write.
func writeSegs(f *File, r *mpi.Rank, segs []pvfs.Segment) { writeSegsHinted(f, r, segs, f.hints) }

// writeAll is one collective write round.
func writeAll(g *Group, r *mpi.Rank, segs []pvfs.Segment) { writeAllHinted(g, r, segs, g.f.hints) }

// readSegs is one individual noncontiguous read, returning the per-segment
// pieces.
func readSegs(f *File, r *mpi.Rank, m Method, segs []pvfs.Segment) [][]pvfs.Segment {
	var op ReadSegsOp
	op.Init(f, r, m, segs)
	destest.Await(r.Proc(), op.Step)
	return op.Pieces()
}

// writeSegsHinted is one individual noncontiguous write with a per-call
// hint override.
func writeSegsHinted(f *File, r *mpi.Rank, segs []pvfs.Segment, h Hints) {
	var op WriteSegsOp
	op.InitHinted(f, r, segs, h)
	destest.Await(r.Proc(), op.Step)
}

// writeAllHinted is one collective write round with a per-round hint
// override.
func writeAllHinted(g *Group, r *mpi.Rank, segs []pvfs.Segment, h Hints) {
	var op CollWriteOp
	op.InitHinted(g, r, segs, h)
	destest.Await(r.Proc(), op.Step)
}

// readAll is one collective read round, returning the per-segment pieces.
func readAll(g *Group, r *mpi.Rank, segs []pvfs.Segment) [][]pvfs.Segment {
	var op CollReadOp
	op.Init(g, r, segs)
	destest.Await(r.Proc(), op.Step)
	return op.Pieces()
}

func TestWriteAtStoresData(t *testing.T) {
	e := newEnv(t, 1, DefaultHints())
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		var op pvfs.IssueOp
		e.f.StartWriteAt(&op, r, 10, 300, 10)
		destest.Await(r.Proc(), op.Step)
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := bytesOf(e.f.PV().ReadBack(10, 300)); !bytes.Equal(got, pattern(10, 300)) {
		t.Fatal("contiguous write image mismatch")
	}
}

// sparseSegs builds interleaved segments with gaps.
func sparseSegs(base int64, count int, size, gap int64) []pvfs.Segment {
	var segs []pvfs.Segment
	off := base
	for i := 0; i < count; i++ {
		segs = append(segs, placed(off, size))
		off += size + gap
	}
	return segs
}

func TestIndividualMethodsProduceSameImage(t *testing.T) {
	segs := sparseSegs(7, 9, 45, 30)
	var total int64
	for _, s := range segs {
		if s.Offset+s.Length > total {
			total = s.Offset + s.Length
		}
	}
	images := map[Method][]byte{}
	for _, m := range []Method{Posix, ListIO, DataSieve} {
		h := DefaultHints()
		h.IndWriteMethod = m
		e := newEnv(t, 1, h)
		spawn(e.w, 0, "r0", func(r *mpi.Rank) {
			writeSegs(e.f, r, segs)
		})
		if err := e.sim.Run(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		images[m] = bytesOf(e.f.PV().ReadBack(0, total))
		if m != DataSieve && e.f.PV().OverlappedBytes() != 0 {
			t.Fatalf("%v: unexpected overlap", m)
		}
	}
	if !bytes.Equal(images[Posix], images[ListIO]) {
		t.Fatal("posix and list images differ")
	}
	if !bytes.Equal(images[Posix], images[DataSieve]) {
		t.Fatal("posix and sieve images differ")
	}
}

func TestDataSievePreservesExistingBytes(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	e := newEnv(t, 1, h)
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		// Pre-existing data across the extent.
		var op pvfs.IssueOp
		e.f.StartWriteAt(&op, r, 0, 200, 0)
		destest.Await(r.Proc(), op.Step)
		// Sieved sparse overwrite of two pieces with content from
		// elsewhere in the stream.
		writeSegs(e.f, r, []pvfs.Segment{
			{Offset: 20, Length: 10, Src: 1000},
			{Offset: 90, Length: 10, Src: 2000},
		})
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	img := bytesOf(e.f.PV().ReadBack(0, 200))
	want := pattern(0, 200)
	copy(want[20:30], pattern(1000, 10))
	copy(want[90:100], pattern(2000, 10))
	if !bytes.Equal(img, want) {
		t.Fatal("data sieving clobbered bytes between segments")
	}
}

func TestDataSieveMultipleWindows(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 100 // force several windows
	e := newEnv(t, 1, h)
	segs := sparseSegs(0, 12, 30, 25) // extent 0..~660, several windows
	var total int64
	for _, s := range segs {
		total = s.Offset + s.Length
	}
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		writeSegs(e.f, r, segs)
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	img := bytesOf(e.f.PV().ReadBack(0, total))
	want := make([]byte, total)
	for _, s := range segs {
		copy(want[s.Offset:s.Offset+s.Length], pattern(s.Src, s.Length))
	}
	if !bytes.Equal(img, want) {
		t.Fatal("multi-window sieve image mismatch")
	}
}

func TestDataSieveSegmentLargerThanBuffer(t *testing.T) {
	h := DefaultHints()
	h.IndWriteMethod = DataSieve
	h.SieveBufferSize = 64
	e := newEnv(t, 1, h)
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		writeSegs(e.f, r, []pvfs.Segment{placed(5, 300)})
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.f.PV().Placed(5, 300) {
		t.Fatal("oversized segment mishandled by sieve")
	}
}

func TestListIOFasterThanPosixForScatteredSegments(t *testing.T) {
	segs := sparseSegs(0, 16, 40, 40) // spans all 4 servers repeatedly
	run := func(m Method) des.Time {
		h := DefaultHints()
		h.IndWriteMethod = m
		e := newEnv(t, 1, h)
		var took des.Time
		spawn(e.w, 0, "r0", func(r *mpi.Rank) {
			start := r.Now()
			writeSegs(e.f, r, segs)
			took = r.Now() - start
		})
		if err := e.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	list, posix := run(ListIO), run(Posix)
	if list >= posix {
		t.Fatalf("list (%v) should beat posix (%v) on scattered segments", list, posix)
	}
}

func TestCollectiveWriteImage(t *testing.T) {
	const n = 4
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	// Interleaved round-robin segments over [0, 1600).
	const segSize = 50
	total := int64(0)
	perRank := make([][]pvfs.Segment, n)
	for i := 0; i < 32; i++ {
		off := int64(i) * segSize
		perRank[i%n] = append(perRank[i%n],
			placed(off, segSize))
		total = off + segSize
	}
	var releases []des.Time
	for rk := 0; rk < n; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			writeAll(g, r, perRank[rk])
			releases = append(releases, r.Now())
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	for _, segs := range perRank {
		for _, s := range segs {
			copy(want[s.Offset:], pattern(s.Src, s.Length))
		}
	}
	if !bytes.Equal(bytesOf(e.f.PV().ReadBack(0, total)), want) {
		t.Fatal("collective image mismatch")
	}
	if e.f.PV().OverlappedBytes() != 0 {
		t.Fatal("collective write overlapped")
	}
	for _, at := range releases[1:] {
		if at != releases[0] {
			t.Fatalf("ranks released at different times: %v", releases)
		}
	}
}

func TestCollectiveMultipleRounds(t *testing.T) {
	const n = 3
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	const rounds = 4
	const segSize = 30
	for rk := 0; rk < n; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			for round := 0; round < rounds; round++ {
				off := int64(round*n+rk) * segSize
				writeAll(g, r, []pvfs.Segment{
					placed(off, segSize),
				})
			}
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(rounds * n * segSize)
	if !e.f.PV().FullyCovers(total) {
		t.Fatal("not fully covered after all rounds")
	}
	want := make([]byte, total)
	for i := int64(0); i < total; i++ {
		want[i] = byte(i % 251)
	}
	if !bytes.Equal(bytesOf(e.f.PV().ReadBack(0, total)), want) {
		t.Fatal("multi-round collective image mismatch")
	}
}

func TestCollectiveEmptyContributor(t *testing.T) {
	const n = 3
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1, 2})
	for rk := 0; rk < n; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			var segs []pvfs.Segment
			if rk == 1 {
				segs = []pvfs.Segment{placed(0, 100)}
			}
			writeAll(g, r, segs)
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesOf(e.f.PV().ReadBack(0, 100)), pattern(0, 100)) {
		t.Fatal("image mismatch with empty contributors")
	}
}

func TestCollectiveAllEmptyRound(t *testing.T) {
	const n = 2
	e := newEnv(t, n, DefaultHints())
	g := e.f.NewGroup([]int{0, 1})
	done := 0
	for rk := 0; rk < n; rk++ {
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			writeAll(g, r, nil)
			done++
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

func TestCollectiveCBNodesHint(t *testing.T) {
	h := DefaultHints()
	h.CBNodes = 1 // single aggregator
	const n = 4
	e := newEnv(t, n, h)
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	const segSize = 40
	for rk := 0; rk < n; rk++ {
		rk := rk
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			off := int64(rk) * segSize
			writeAll(g, r, []pvfs.Segment{
				placed(off, segSize),
			})
		})
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(n * segSize)
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i % 251)
	}
	if !bytes.Equal(bytesOf(e.f.PV().ReadBack(0, total)), want) {
		t.Fatal("single-aggregator image mismatch")
	}
	// With one aggregator and a fully dense extent, the write coalesces into
	// one request per server at most.
	if got := e.fs.Stats().TotalRequests; got > uint64(testFS().NumServers) {
		t.Fatalf("requests = %d, want ≤ %d (coalesced)", got, testFS().NumServers)
	}
}

func TestSyncRuns(t *testing.T) {
	e := newEnv(t, 1, DefaultHints())
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		var op pvfs.IssueOp
		e.f.StartWriteAt(&op, r, 0, 100, 0)
		destest.Await(r.Proc(), op.Step)
		before := r.Now()
		e.f.StartSync(&op, r)
		destest.Await(r.Proc(), op.Step)
		if r.Now() == before {
			t.Error("sync should take time")
		}
	})
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesce(t *testing.T) {
	segs := func() []pvfs.Segment {
		return []pvfs.Segment{
			{Offset: 100, Length: 10, Src: 100},
			{Offset: 0, Length: 50, Src: 0},
			{Offset: 50, Length: 50, Src: 50},
			{Offset: 200, Length: 10, Src: 200},
			{Offset: 210, Length: 10, Src: 900}, // file-adjacent, content from elsewhere
			{Offset: 220, Length: 5, Src: pvfs.Zero},
			{Offset: 225, Length: 5, Src: pvfs.Zero},
		}
	}
	out := coalesce(segs(), true)
	want := []pvfs.Segment{
		{Offset: 0, Length: 110, Src: 0},
		{Offset: 200, Length: 10, Src: 200},
		{Offset: 210, Length: 10, Src: 900},
		{Offset: 220, Length: 10, Src: pvfs.Zero},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("capturing coalesce = %v, want %v", out, want)
	}
	// Without content, offset adjacency alone merges (the rule non-capturing
	// runs have always used, so their segment counts do not move).
	out = coalesce(segs(), false)
	want = []pvfs.Segment{{Offset: 0, Length: 110, Src: 0}, {Offset: 200, Length: 30, Src: 200}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("offset-only coalesce = %v, want %v", out, want)
	}
}

// Property: collective and individual list writes of the same random
// disjoint segment assignment produce identical images.
func TestPropertyCollectiveMatchesIndividual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		perRank := make([][]pvfs.Segment, n)
		off := int64(0)
		for i := 0; i < 12; i++ {
			length := int64(rng.Intn(90)) + 1
			seg := placed(off, length)
			owner := rng.Intn(n)
			perRank[owner] = append(perRank[owner], seg)
			off += length
		}
		image := func(collective bool) []byte {
			e := newEnv(t, n, DefaultHints())
			g := e.f.NewGroup([]int{0, 1, 2})
			for rk := 0; rk < n; rk++ {
				rk := rk
				spawn(e.w, rk, "r", func(r *mpi.Rank) {
					if collective {
						writeAll(g, r, perRank[rk])
					} else {
						writeSegs(e.f, r, perRank[rk])
					}
				})
			}
			if err := e.sim.Run(); err != nil {
				t.Error(err)
				return nil
			}
			return bytesOf(e.f.PV().ReadBack(0, off))
		}
		return bytes.Equal(image(true), image(false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
