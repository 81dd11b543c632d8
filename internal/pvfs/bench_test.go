package pvfs

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// benchFS builds a Feynman-like file system without data capture.
func benchFS(sim *des.Simulation) *FileSystem {
	cfg := FeynmanLike()
	return New(sim, cfg)
}

// BenchmarkWriteContig measures large contiguous writes striped over all
// servers.
func BenchmarkWriteContig(b *testing.B) {
	sim := des.New()
	fs := benchFS(sim)
	port := &Port{Send: sim.NewResource("s", 1), Recv: sim.NewResource("r", 1)}
	destest.Spawn(sim, "c", func(p *des.Proc) {
		var op IssueOp
		f := fs.Create(p, "bench")
		destest.Yield(p)
		for i := 0; i < b.N; i++ {
			op.InitWrite(p, f, port, int64(i)*1<<20, 1<<20, int64(i)*1<<20)
			destest.Await(p, op.Step)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
}

// BenchmarkWriteList measures scattered list-I/O writes (the WW-List hot
// path): 64 scattered 4 KB segments per operation.
func BenchmarkWriteList(b *testing.B) {
	sim := des.New()
	fs := benchFS(sim)
	port := &Port{Send: sim.NewResource("s", 1), Recv: sim.NewResource("r", 1)}
	destest.Spawn(sim, "c", func(p *des.Proc) {
		var op IssueOp
		f := fs.Create(p, "bench")
		destest.Yield(p)
		for i := 0; i < b.N; i++ {
			segs := make([]Segment, 64)
			base := int64(i) * 64 * 128 * 1024
			for j := range segs {
				segs[j] = Segment{Offset: base + int64(j)*128*1024, Length: 4096}
			}
			op.InitWriteList(p, f, port, segs)
			destest.Await(p, op.Step)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// extentWorkingSet is the number of extents the extent-map write benchmarks
// keep stored: each op overwrites within it, so per-op cost does not grow
// with b.N.
const extentWorkingSet = 1 << 14

// BenchmarkExtentMapWrite measures the pure extent-tracking data structure
// as the no-capture file system uses it: a map pre-filled with Zero extents
// separated by holes, then overwritten slot by slot in a scattered order
// (binary search plus in-place replacement).
func BenchmarkExtentMapWrite(b *testing.B) {
	m := extentMap{}
	for k := int64(0); k < extentWorkingSet; k++ {
		m.write(k*16, 8, k*16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i*7919)%extentWorkingSet) * 16
		m.write(off, 8, off)
	}
}

// BenchmarkExtentMapWriteCapture measures the capture path's store on a
// pre-filled map of placed extents: each slot is alternately split by a
// misplaced overwrite of its middle (the ≤3-entry splice, growing the map
// by two) and healed by rewriting its own content (coalescing back to one
// extent).
func BenchmarkExtentMapWriteCapture(b *testing.B) {
	m := extentMap{capture: true}
	for k := int64(0); k < extentWorkingSet; k++ {
		m.write(k*32, 24, k*32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i/2*7919)%extentWorkingSet)*32 + 8
		src := off
		if i%2 == 0 {
			src = Zero
		}
		m.write(off, 8, src)
	}
}

// BenchmarkExtentMapPlaced measures the in-place verifier over a 64-piece
// range of a region written in 4096 placed pieces, which write coalesces
// into one extent (placed neighbours always continue each other). It must
// stay 0 allocs/op.
func BenchmarkExtentMapPlaced(b *testing.B) {
	m := extentMap{capture: true}
	for i := int64(0); i < 4096; i++ {
		m.write(i*1000, 1000, i*1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.placed(int64(i%4000)*1000+17, 64*1000) {
			b.Fatal("placed range failed verification")
		}
	}
}

// BenchmarkExtentMapRead measures descriptor reads of a range spanning 64
// stored extents. Every other piece is shifted in the stream, so no two
// neighbours continue each other and write keeps them apart.
func BenchmarkExtentMapRead(b *testing.B) {
	m := extentMap{capture: true}
	for i := int64(0); i < 4096; i++ {
		m.write(i*1000, 1000, i*1000+i%2)
	}
	var buf []Segment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.read(int64(i%4000)*1000+17, 64*1000, buf[:0])
	}
}
