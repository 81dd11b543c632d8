package search

import "testing"

// BenchmarkGenerateDefault measures full paper-workload generation
// (20 queries × ~1500 results with layout).
func BenchmarkGenerateDefault(b *testing.B) {
	spec := DefaultSpec()
	for i := 0; i < b.N; i++ {
		Generate(spec)
	}
}

// BenchmarkTaskLookup measures the per-task accessors the engine calls on
// the hot path.
func BenchmarkTaskLookup(b *testing.B) {
	w := Generate(DefaultSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % w.Spec.NumQueries
		f := i % w.Spec.NumFragments
		_ = w.TaskBytes(q, f)
		_ = w.TaskCount(q, f)
	}
}

// BenchmarkFillContent measures payload generation throughput over a 64 KiB
// extent at an unaligned offset. It must stay 0 allocs/op.
func BenchmarkFillContent(b *testing.B) {
	w := Generate(DefaultSpec())
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FillContent(buf, 3)
	}
}
