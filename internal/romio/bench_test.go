package romio

import (
	"testing"

	"s3asim/internal/des/destest"
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
	spawn(e.w, 0, "r0", func(r *mpi.Rank) {
		writeSegs(e.f, r, segs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !allPieces(segs, readSegs(e.f, r, m, segs)) {
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
		spawn(e.w, rk, "r", func(r *mpi.Rank) {
			writeAll(g, r, perRank[rk])
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

// benchWriteSegs measures one capturing individual noncontiguous write of 64
// irregular segments per op under method m — a worker's per-batch write
// step, including the simulated I/O it drives. The op is reused, as the
// engine's worker reuses its own.
func benchWriteSegs(b *testing.B, m Method) {
	h := DefaultHints()
	h.IndWriteMethod = m
	h.SieveBufferSize = 4096
	e := newEnv(b, 1, h)
	segs := irregularSegs(64)
	spawn(e.w, 0, "w0", func(r *mpi.Rank) {
		var op WriteSegsOp
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.Init(e.f, r, segs)
			destest.Await(r.Proc(), op.Step)
		}
	})
	b.ReportAllocs()
	if err := e.sim.Run(); err != nil {
		b.Fatal(err)
	}
	checkPlaced(b, e.f, segs)
}

func BenchmarkWriteSegsPosix(b *testing.B)     { benchWriteSegs(b, Posix) }
func BenchmarkWriteSegsListIO(b *testing.B)    { benchWriteSegs(b, ListIO) }
func BenchmarkWriteSegsDataSieve(b *testing.B) { benchWriteSegs(b, DataSieve) }

// benchCollWrite measures one capturing collective write round under
// method m over four ranks (cb_nodes 3) of 64 interleaved irregular
// segments, each rank reusing its op.
func benchCollWrite(b *testing.B, m CollMethod) {
	const n = 4
	h := DefaultHints()
	h.CBNodes = 3
	h.CollWriteMethod = m
	e := newEnv(b, n, h)
	g := e.f.NewGroup([]int{0, 1, 2, 3})
	segs := irregularSegs(64)
	perRank := make([][]pvfs.Segment, n)
	for i, s := range segs {
		perRank[i%n] = append(perRank[i%n], s)
	}
	for rk := 0; rk < n; rk++ {
		spawn(e.w, rk, "w", func(r *mpi.Rank) {
			var op CollWriteOp
			if rk == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				op.Init(g, r, perRank[rk])
				destest.Await(r.Proc(), op.Step)
			}
		})
	}
	b.ReportAllocs()
	if err := e.sim.Run(); err != nil {
		b.Fatal(err)
	}
	checkPlaced(b, e.f, segs)
}

func BenchmarkCollWriteTwoPhase(b *testing.B) { benchCollWrite(b, TwoPhase) }
func BenchmarkCollWriteListSync(b *testing.B) { benchCollWrite(b, ListSync) }

// checkPlaced fails b unless every segment reads back placed.
func checkPlaced(b *testing.B, f *File, segs []pvfs.Segment) {
	for _, s := range segs {
		if !f.PV().Placed(s.Offset, s.Length) {
			b.Fatalf("segment at %d (%d bytes) not placed", s.Offset, s.Length)
		}
	}
}
