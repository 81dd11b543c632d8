package pvfs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

func testConfig() Config {
	return Config{
		NumServers:       4,
		StripSize:        100,
		RequestOverhead:  des.Millisecond,
		SegmentOverhead:  100 * des.Microsecond,
		ServiceBandwidth: 1e6, // 1 byte/µs
		SyncBase:         des.Millisecond,
		SyncBandwidth:    1e6,
		MetaOverhead:     des.Millisecond,
		CaptureData:      true,
	}
}

// freePort returns a Port whose NICs never contend (for cost-math tests).
func freePort(sim *des.Simulation) *Port {
	return &Port{
		Send: sim.NewResource("client.send", 1),
		Recv: sim.NewResource("client.recv", 1),
		// Bandwidth 0 means infinite in des.BytesOver.
	}
}

// seg builds a descriptor; z is shorthand for a Zero range.
func seg(off, n, src int64) Segment { return Segment{Offset: off, Length: n, Src: src} }

func z(off, n int64) Segment { return seg(off, n, Zero) }

// perByte expands tiling pieces into the stream offset each byte holds
// (-1 for zeros), the flat reference form.
func perByte(pieces []Segment) []int64 {
	var out []int64
	for _, p := range pieces {
		for i := int64(0); i < p.Length; i++ {
			if p.Src == Zero {
				out = append(out, -1)
			} else {
				out = append(out, p.Src+i)
			}
		}
	}
	return out
}

func TestExtentMapWriteReadBack(t *testing.T) {
	m := extentMap{capture: true}
	m.write(10, 5, 10)
	m.write(20, 3, 500)
	got := m.read(8, 20, nil)
	want := []Segment{z(8, 2), seg(10, 5, 10), z(15, 5), seg(20, 3, 500), z(23, 5)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
	if m.coverage() != 8 {
		t.Fatalf("coverage = %d, want 8", m.coverage())
	}
	if m.overlapped != 0 {
		t.Fatalf("overlapped = %d, want 0", m.overlapped)
	}
}

func TestExtentMapOverwriteSplits(t *testing.T) {
	m := extentMap{capture: true}
	m.write(0, 10, 100)
	m.write(3, 4, 200)
	// The right remnant keeps the content it held: Src advances with it.
	got := m.read(0, 10, nil)
	if want := []Segment{seg(0, 3, 100), seg(3, 4, 200), seg(7, 3, 107)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
	if m.overlapped != 4 {
		t.Fatalf("overlapped = %d, want 4", m.overlapped)
	}
	if m.coverage() != 10 {
		t.Fatalf("coverage = %d, want 10", m.coverage())
	}
}

func TestExtentMapCovers(t *testing.T) {
	m := extentMap{}
	m.write(0, 5, 0)
	m.write(7, 5, 7)
	if m.covers(12) {
		t.Fatal("covers should be false with a gap at [5,7)")
	}
	m.write(5, 2, 5)
	if !m.covers(12) {
		t.Fatal("covers should be true once the gap is filled")
	}
	if m.covers(13) {
		t.Fatal("covers(13) should be false")
	}
}

// Property: extentMap matches a flat reference model under random writes.
func TestPropertyExtentMapMatchesReference(t *testing.T) {
	type op struct {
		Off  uint8
		Len  uint8
		Fill byte // 0 writes a Zero range; otherwise the content's Src
	}
	f := func(ops []op) bool {
		const size = 600
		ref := make([]int64, size)
		for i := range ref {
			ref[i] = -1
		}
		written := make([]bool, size)
		m := extentMap{capture: true}
		for _, o := range ops {
			off := int64(o.Off) * 2
			n := int64(o.Len%40) + 1
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			src := Zero
			if o.Fill != 0 {
				src = int64(o.Fill) * 3
			}
			m.write(off, n, src)
			for i := off; i < off+n; i++ {
				ref[i] = -1
				if src != Zero {
					ref[i] = src + i - off
				}
				written[i] = true
			}
		}
		if !reflect.DeepEqual(perByte(m.read(0, size, nil)), ref) {
			return false
		}
		var cov int64
		for _, w := range written {
			if w {
				cov++
			}
		}
		return m.coverage() == cov
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByServerStriping(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	var f *File
	destest.Spawn(sim, "setup", func(p *des.Proc) { f = fs.Create(p, "out"); destest.Yield(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Segment [150, 420): strips 1 (150-199), 2 (200-299), 3 (300-399), 0' (400-419).
	pieces := f.splitByServer([]Segment{{Offset: 150, Length: 270}})
	wantServers := []int{1, 2, 3, 0}
	wantLens := []int64{50, 100, 100, 20}
	if len(pieces) != 4 {
		t.Fatalf("pieces = %d, want 4", len(pieces))
	}
	for i, pc := range pieces {
		if pc.server != wantServers[i] || pc.seg.Length != wantLens[i] {
			t.Fatalf("piece %d = server %d len %d, want server %d len %d",
				i, pc.server, pc.seg.Length, wantServers[i], wantLens[i])
		}
	}
}

// TestSplitByServerCarriesData: each strip piece's descriptor advances with
// its offset, so the pieces rejoin to the original segment.
func TestSplitByServerCarriesData(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	var f *File
	destest.Spawn(sim, "setup", func(p *des.Proc) { f = fs.Create(p, "out"); destest.Yield(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, src := range []int64{50, 1000, Zero} {
		whole := seg(50, 250, src)
		var rejoined []Segment
		for _, pc := range f.splitByServer([]Segment{whole}) {
			rejoined = AppendPiece(rejoined, pc.seg)
		}
		if want := []Segment{whole}; !reflect.DeepEqual(rejoined, want) {
			t.Fatalf("src %d: pieces rejoin to %v, want %v", src, rejoined, want)
		}
	}
}

func TestGroupRequestsBatchesPerServer(t *testing.T) {
	pieces := []serverPiece{
		{server: 0, seg: Segment{Offset: 0, Length: 10}},
		{server: 1, seg: Segment{Offset: 100, Length: 10}},
		{server: 0, seg: Segment{Offset: 400, Length: 20}},
	}
	fs := New(des.New(), testConfig())
	reqs := fs.groupRequests(nil, pieces, opWrite, false)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2 (one per server)", len(reqs))
	}
	if reqs[0].server != 0 || reqs[0].nsegs != 2 || reqs[0].bytes != 30 {
		t.Fatalf("server-0 request = %+v", reqs[0])
	}
	if reqs[1].server != 1 || reqs[1].nsegs != 1 || reqs[1].bytes != 10 {
		t.Fatalf("server-1 request = %+v", reqs[1])
	}
	contig := fs.groupRequests(nil, pieces, opWrite, true)
	if contig[0].nsegs != 1 {
		t.Fatalf("contiguous request nsegs = %d, want 1", contig[0].nsegs)
	}
}

func TestWriteCostModel(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	var doneAt des.Time
	destest.Spawn(sim, "client", func(p *des.Proc) {
		var op IssueOp
		f := fs.Create(p, "out")
		destest.Yield(p)
		start := p.Now() // create costs one metadata op
		op.InitWrite(p, f, port, 0, 100, 0)
		destest.Await(p, op.Step)
		doneAt = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 server request: 1 ms overhead + 0.1 ms segment + 100 µs bytes,
	// then a 2 µs ack.
	want := des.Millisecond + 100*des.Microsecond + 100*des.Microsecond + ackCost
	if doneAt != want {
		t.Fatalf("write took %v, want %v", doneAt, want)
	}
}

func TestWriteListParallelAcrossServers(t *testing.T) {
	segs := []Segment{
		{Offset: 0, Length: 100},   // server 0
		{Offset: 100, Length: 100}, // server 1
		{Offset: 200, Length: 100}, // server 2
		{Offset: 300, Length: 100}, // server 3
	}
	run := func(list bool) des.Time {
		sim := des.New()
		cfg := testConfig()
		cfg.CaptureData = false
		fs := New(sim, cfg)
		port := freePort(sim)
		var took des.Time
		destest.Spawn(sim, "client", func(p *des.Proc) {
			var op IssueOp
			f := fs.Create(p, "out")
			destest.Yield(p)
			start := p.Now()
			if list {
				op.InitWriteList(p, f, port, segs)
				destest.Await(p, op.Step)
			} else {
				for _, s := range segs {
					op.InitWrite(p, f, port, s.Offset, s.Length, s.Offset)
					destest.Await(p, op.Step)
				}
			}
			took = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	listT := run(true)
	posixT := run(false)
	// Service is parallel across the 4 servers; the 4 acks serialize on the
	// client recv NIC, so completion is one service time plus 4 ack costs.
	service := des.Millisecond + 100*des.Microsecond + 100*des.Microsecond
	if want := service + 4*ackCost; listT != want {
		t.Fatalf("list write took %v, want %v (parallel across 4 servers)", listT, want)
	}
	if want := 4 * (service + ackCost); posixT != want {
		t.Fatalf("sequential writes took %v, want %v", posixT, want)
	}
}

func TestWriteListBatchesSegmentsOnOneServer(t *testing.T) {
	sim := des.New()
	cfg := testConfig()
	fs := New(sim, cfg)
	port := freePort(sim)
	var took des.Time
	destest.Spawn(sim, "client", func(p *des.Proc) {
		f := fs.Create(p, "out")
		destest.Yield(p)
		start := p.Now()
		// Two segments, both on server 0 (strips 0 and 4).
		var op IssueOp
		op.InitWriteList(p, f, port, []Segment{
			seg(0, 50, 0),
			seg(400, 50, 400),
		})
		destest.Await(p, op.Step)
		took = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// One request: 1 ms + 2 segments · 0.1 ms + 100 µs bytes + ack.
	want := des.Millisecond + 200*des.Microsecond + 100*des.Microsecond + ackCost
	if took != want {
		t.Fatalf("batched list write took %v, want %v", took, want)
	}
	if fs.Stats().TotalRequests != 1 || fs.Stats().TotalSegments != 2 {
		t.Fatalf("stats = %+v, want 1 request with 2 segments", fs.Stats())
	}
}

func TestSyncFlushesDirtyOnce(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	var first, second des.Time
	destest.Spawn(sim, "client", func(p *des.Proc) {
		var op IssueOp
		f := fs.Create(p, "out")
		destest.Yield(p)
		op.InitWrite(p, f, port, 0, 100, 0) // server 0 dirty: 100 B
		destest.Await(p, op.Step)
		start := p.Now()
		op.InitSync(p, f, port)
		destest.Await(p, op.Step)
		first = p.Now() - start
		start = p.Now()
		op.InitSync(p, f, port)
		destest.Await(p, op.Step)
		second = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// First sync: server 0 pays 1 ms + 100 µs, others 1 ms; parallel + ack.
	want1 := des.Millisecond + 100*des.Microsecond + ackCost
	if first != want1 {
		t.Fatalf("first sync took %v, want %v", first, want1)
	}
	// All four servers finish at 1 ms; their acks serialize on the recv NIC.
	want2 := des.Millisecond + 4*ackCost
	if second != want2 {
		t.Fatalf("second sync took %v, want %v (dirty already flushed)", second, want2)
	}
}

func TestConcurrentClientsSerializeAtServer(t *testing.T) {
	sim := des.New()
	cfg := testConfig()
	cfg.CaptureData = false
	fs := New(sim, cfg)
	var f *File
	destest.Spawn(sim, "setup", func(p *des.Proc) { f = fs.Create(p, "out"); destest.Yield(p) })
	var ends []des.Time
	for i := 0; i < 2; i++ {
		i := i
		port := freePort(sim)
		destest.Spawn(sim, "client", func(p *des.Proc) {
			var op IssueOp
			destest.Sleep(p, 2*des.Millisecond) // after setup
			start := p.Now()
			// Both write to server 0 strips (offsets 0 and 400).
			op.InitWrite(p, f, port, int64(i)*400, 100, int64(i)*400)
			destest.Await(p, op.Step)
			ends = append(ends, p.Now()-start)
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	perReq := des.Millisecond + 200*des.Microsecond
	if ends[0] != perReq+ackCost {
		t.Fatalf("first client took %v, want %v", ends[0], perReq+ackCost)
	}
	if ends[1] != 2*perReq+ackCost {
		t.Fatalf("second client took %v, want %v (queued behind first)", ends[1], 2*perReq+ackCost)
	}
}

func TestFileImageAcrossClients(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	var f *File
	destest.Spawn(sim, "setup", func(p *des.Proc) { f = fs.Create(p, "out"); destest.Yield(p) })
	// Four clients each write a distinct quarter of a 1000-byte file.
	for i := 0; i < 4; i++ {
		i := i
		port := freePort(sim)
		destest.Spawn(sim, "client", func(p *des.Proc) {
			var op IssueOp
			destest.Sleep(p, 2*des.Millisecond)
			op.InitWrite(p, f, port, int64(i)*250, 250, int64(i)*250)
			destest.Await(p, op.Step)
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1000 || f.Coverage() != 1000 || f.OverlappedBytes() != 0 {
		t.Fatalf("size=%d coverage=%d overlap=%d", f.Size(), f.Coverage(), f.OverlappedBytes())
	}
	if !f.FullyCovers(1000) {
		t.Fatal("file should be fully covered")
	}
	// Four placed quarters read back as one piece.
	if got, want := f.ReadBack(0, 1000), []Segment{seg(0, 1000, 0)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("image = %v, want %v", got, want)
	}
	if !f.Placed(0, 1000) {
		t.Fatal("placed quarters not verified")
	}
}

func TestReadReturnsWrittenData(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	var got []Segment
	destest.Spawn(sim, "client", func(p *des.Proc) {
		var op IssueOp
		f := fs.Create(p, "out")
		destest.Yield(p)
		op.InitWrite(p, f, port, 10, 5, 10)
		destest.Await(p, op.Step)
		op.InitRead(p, f, port, 8, 9)
		destest.Await(p, op.Step)
		got = op.ReadPieces()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Segment{z(8, 2), seg(10, 5, 10), z(15, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
}

func TestOpenAndLookup(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	destest.Spawn(sim, "client", func(p *des.Proc) {
		f := fs.Create(p, "a")
		destest.Yield(p)
		g := fs.Open(p, "a")
		destest.Yield(p)
		if g != f {
			t.Error("Open returned a different file")
		}
		g = fs.Open(p, "missing")
		destest.Yield(p)
		if g != nil {
			t.Error("Open of missing file should be nil")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("a") == nil {
		t.Fatal("Lookup failed")
	}
}

// Property: for random non-overlapping segment sets, WriteList stores the
// same content as per-segment Writes, and never reports overlap.
func TestPropertyListAndContigEquivalent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		// Build non-overlapping segments inside [0, 2000).
		var segs []Segment
		pos := int64(0)
		for i := 0; i < n && pos < 1900; i++ {
			gap := int64(rng.Intn(50))
			length := int64(rng.Intn(120)) + 1
			if pos+gap+length > 2000 {
				break
			}
			segs = append(segs, seg(pos+gap, length, rng.Int63n(1<<20)))
			pos += gap + length
		}
		if len(segs) == 0 {
			return true
		}
		image := func(useList bool) []Segment {
			sim := des.New()
			fs := New(sim, testConfig())
			port := freePort(sim)
			var img []Segment
			destest.Spawn(sim, "c", func(p *des.Proc) {
				var op IssueOp
				file := fs.Create(p, "out")
				destest.Yield(p)
				if useList {
					op.InitWriteList(p, file, port, segs)
					destest.Await(p, op.Step)
				} else {
					for _, s := range segs {
						op.InitWrite(p, file, port, s.Offset, s.Length, s.Src)
						destest.Await(p, op.Step)
					}
				}
				if file.OverlappedBytes() != 0 {
					t.Error("unexpected overlap")
				}
				img = file.ReadBack(0, 2000)
			})
			if err := sim.Run(); err != nil {
				t.Error(err)
			}
			return img
		}
		return reflect.DeepEqual(image(true), image(false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
