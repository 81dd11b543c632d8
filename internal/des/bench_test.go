package des

import (
	"fmt"
	"testing"
	"unsafe"
)

// BenchmarkEventHeap measures one push plus one pop on the calendar at a
// fixed pending depth, guarding the allocation behavior: with the
// preallocated capacity of newCalendar, steady-state push/pop must not
// allocate. Depth 256 is the working set the benchmark workloads hold
// (mean heap depth 266 on batch, 180 on chaos, with 15 and 2 more entries
// in the lanes); 2048 is a paper-scale peak. The heap cases
// push random times; the mixed cases push at the measured batch shares —
// 29% After(12 µs) and 16% at the present time through the lanes, the rest
// random times through the heap — and advance the clock to each pop.
func BenchmarkEventHeap(b *testing.B) {
	for _, mixed := range []bool{false, true} {
		for _, depth := range []int{256, 2048} {
			name := fmt.Sprintf("depth=%d", depth)
			if mixed {
				name = "mixed/" + name
			}
			b.Run(name, func(b *testing.B) {
				c := newCalendar()
				// Deterministic pseudo-random times exercise real sift paths.
				x := uint64(2007029)
				next := func() Time {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					return Time(x % (1 << 30))
				}
				var p Proc
				arg := unsafe.Pointer(&p)
				for i := 0; i < depth; i++ {
					c.push(next(), uint64(i), evResume, arg)
				}
				now := Time(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seq := uint64(depth + i)
					switch r := next(); {
					case !mixed:
						c.push(r, seq, evResume, arg)
					case r%100 < 29:
						c.pushAfter(12*Microsecond, now+12*Microsecond, seq, evResume, arg)
					case r%100 < 45:
						c.pushNow(now, seq, evResume, arg)
					default:
						c.push(now+r%(1<<20), seq, evResume, arg)
					}
					t, _, _, _ := c.pop(endOfTime)
					if mixed {
						now = t
					}
				}
			})
		}
	}
}

// TestEventHeapSteadyStateAllocs pins the property BenchmarkEventHeap
// reports: once the working set fits the preallocated capacity, push/pop
// cycles through the heap and the lanes allocate nothing.
func TestEventHeapSteadyStateAllocs(t *testing.T) {
	c := newCalendar()
	var p Proc
	arg := unsafe.Pointer(&p)
	for i := 0; i < 1024; i++ {
		c.push(Time(i%97), uint64(i), evResume, arg)
	}
	seq := uint64(1024)
	now := Time(0)
	cycle := func() {
		for i := 0; i < 64; i++ {
			switch seq % 3 {
			case 0:
				c.push(now+Time(seq%97), seq, evResume, arg)
			case 1:
				c.pushNow(now, seq, evResume, arg)
			case 2:
				c.pushAfter(12, now+12, seq, evResume, arg)
			}
			seq++
			now, _, _, _ = c.pop(endOfTime)
		}
	}
	// Let the lane rings reach their steady-state size first.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEventThroughput measures raw calendar throughput: schedule-and-
// fire of chained events.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceSubmit measures the callback fast path under queueing.
func BenchmarkResourceSubmit(b *testing.B) {
	s := New()
	r := s.NewResource("r", 1)
	for i := 0; i < b.N; i++ {
		r.Submit(1, nil)
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
