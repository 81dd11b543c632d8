package stats

import (
	"math/rand"
	"testing"
)

// benchSink keeps the benchmarks' draws live.
var benchSink uint64

// fiveDraws are the draws search.Generate makes per result: a histogram
// sample (a Float64 and an Int63n), a result size, a fragment and a score.
func fiveDraws(r *rand.Rand) uint64 {
	return uint64(int64(r.Float64()*1e6) + r.Int63n(20000) + r.Int63n(60000) +
		int64(r.Intn(128)) + int64(r.Float64()*1e6))
}

// BenchmarkSubRand measures seeding one substream plus five draws:
// math/rand's source (which fills its 607-word register at Seed), a fresh
// SubRand, and one rand.Rand reseeded per substream. The reused path must
// stay 0 allocs/op (TestSourceReseedAllocs pins it).
func BenchmarkSubRand(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += fiveDraws(rand.New(rand.NewSource(DeriveSeed(7, int64(i)))))
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += fiveDraws(SubRand(7, int64(i)))
		}
	})
	b.Run("reused", func(b *testing.B) {
		r := rand.New(NewSource(0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Seed(DeriveSeed(7, int64(i)))
			benchSink += fiveDraws(r)
		}
	})
}

// BenchmarkSourceStream measures one draw deep into a long stream, where
// every register entry has been written and Source runs math/rand's plain
// lagged-Fibonacci step.
func BenchmarkSourceStream(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"mathrand", rand.NewSource(7)},
		{"lazy", NewSource(7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			for i := 0; i < 2*rngLen; i++ {
				r.Uint64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += r.Uint64()
			}
		})
	}
}
