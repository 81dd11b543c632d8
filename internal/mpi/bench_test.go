package mpi

import (
	"testing"

	"s3asim/internal/des"
)

// BenchmarkPingPong measures a blocking round trip between two ranks.
func BenchmarkPingPong(b *testing.B) {
	sim := des.New()
	w := NewWorld(sim, 2, Myrinet2000())
	w.Spawn(0, "a", func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(1, 0, 64, nil)
			r.Recv(1, 1)
		}
	})
	w.Spawn(1, "b", func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Recv(0, 0)
			r.Send(0, 1, 64, nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFanIn measures many senders funneling into one receiver, the
// S3aSim master's traffic pattern.
func BenchmarkFanIn(b *testing.B) {
	const senders = 32
	sim := des.New()
	w := NewWorld(sim, senders+1, Myrinet2000())
	per := b.N/senders + 1
	for i := 1; i <= senders; i++ {
		w.Spawn(i, "s", func(r *Rank) {
			for j := 0; j < per; j++ {
				r.Isend(0, 0, 1024, nil)
			}
		})
	}
	w.Spawn(0, "sink", func(r *Rank) {
		for j := 0; j < per*senders; j++ {
			r.Recv(AnySource, 0)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier measures repeated full-world barriers.
func BenchmarkBarrier(b *testing.B) {
	const ranks = 16
	sim := des.New()
	w := NewWorld(sim, ranks, Myrinet2000())
	bar := w.NewBarrier(ranks)
	rounds := b.N/ranks + 1
	for i := 0; i < ranks; i++ {
		w.Spawn(i, "p", func(r *Rank) {
			for j := 0; j < rounds; j++ {
				bar.Arrive(r)
			}
		})
	}
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
