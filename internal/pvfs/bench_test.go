package pvfs

import (
	"testing"

	"s3asim/internal/des"
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
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "bench")
		for i := 0; i < b.N; i++ {
			f.Write(p, port, int64(i)*1<<20, 1<<20, int64(i)*1<<20)
		}
	})
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
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "bench")
		for i := 0; i < b.N; i++ {
			segs := make([]Segment, 64)
			base := int64(i) * 64 * 128 * 1024
			for j := range segs {
				segs[j] = Segment{Offset: base + int64(j)*128*1024, Length: 4096}
			}
			f.WriteList(p, port, segs)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExtentMapWrite measures the pure extent-tracking data structure.
func BenchmarkExtentMapWrite(b *testing.B) {
	m := extentMap{}
	for i := 0; i < b.N; i++ {
		// Alternating pattern exercising search + insert.
		off := int64((i * 7919) % 1000000)
		m.write(off*16, 8, off*16)
	}
}

// BenchmarkExtentMapWriteCapture measures the capture path's store:
// descriptor writes with overwrites that exercise the ≤3-entry splice.
func BenchmarkExtentMapWriteCapture(b *testing.B) {
	m := extentMap{capture: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64((i*7919)%1000000) * 16
		m.write(off, 24, off)
	}
}

// BenchmarkExtentMapPlaced measures the in-place verifier over a range
// spanning 64 stored extents. It must stay 0 allocs/op.
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
// stored extents, which merge into one piece.
func BenchmarkExtentMapRead(b *testing.B) {
	m := extentMap{capture: true}
	for i := int64(0); i < 4096; i++ {
		m.write(i*1000, 1000, i*1000)
	}
	var buf []Segment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.read(int64(i%4000)*1000+17, 64*1000, buf[:0])
	}
}
