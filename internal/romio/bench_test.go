package romio

import (
	"testing"

	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

// benchReadSegs measures one capturing individual noncontiguous read of 64
// irregular segments per op — the verified read path's per-batch step,
// including the simulated I/O it drives.
func benchReadSegs(b *testing.B, m Method) {
	h := DefaultHints()
	h.SieveBufferSize = 4096
	e := newEnv(b, 1, h)
	segs := irregularSegs(64)
	e.w.Spawn(0, "r0", func(r *mpi.Rank) {
		e.f.WriteSegs(r, segs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !allPieces(segs, e.f.ReadSegs(r, m, segs)) {
				b.Fatal("read pieces not placed")
			}
		}
	})
	b.ReportAllocs()
	if err := e.sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReadSegsListIO(b *testing.B)    { benchReadSegs(b, ListIO) }
func BenchmarkReadSegsDataSieve(b *testing.B) { benchReadSegs(b, DataSieve) }

// BenchmarkCollRead measures one capturing two-phase collective read round
// over four ranks (cb_nodes 3) of 64 interleaved irregular segments.
func BenchmarkCollRead(b *testing.B) {
	const n = 4
	h := DefaultHints()
	h.CBNodes = 3
	e := newEnv(b, n, h)
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	segs := irregularSegs(64)
	perRank := make([][]pvfs.Segment, n)
	for i, s := range segs {
		perRank[i%n] = append(perRank[i%n], s)
	}
	for rk := 0; rk < n; rk++ {
		rk := rk
		e.w.Spawn(rk, "r", func(r *mpi.Rank) {
			g.WriteAll(r, perRank[rk])
			if rk == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if !allPieces(perRank[rk], readAll(g, r, perRank[rk])) {
					b.Fatal("read pieces not placed")
				}
			}
		})
	}
	b.ReportAllocs()
	if err := e.sim.Run(); err != nil {
		b.Fatal(err)
	}
}
