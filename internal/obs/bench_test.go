package obs

import (
	"testing"

	"s3asim/internal/des"
)

// Registry microbenchmarks: the string API against pre-resolved handles,
// each with and without 500ms windows. Values cycle through a fixed set and
// the clock stays inside one window, so after the warm-up every bucket and
// window the loop touches exists and the steady state is measured.

var benchVals = func() []float64 {
	vs := make([]float64, 256)
	for i := range vs {
		vs[i] = float64(1+i%37) * 1e-4 * float64(1+i%5)
	}
	return vs
}()

// benchRegistry returns a registry (locked, or single-goroutine when local)
// with windows of 500ms enabled or not, its clock parked inside one window.
func benchRegistry(local, windows bool) *Registry {
	r := NewRegistry()
	if local {
		r = NewLocalRegistry()
	}
	if windows {
		now := 1200 * des.Millisecond
		r.EnableWindows(500*des.Millisecond, func() des.Time { return now })
	}
	return r
}

func benchForms(b *testing.B, run func(b *testing.B, windows bool)) {
	for _, windows := range []bool{false, true} {
		name := "nowin"
		if windows {
			name = "win"
		}
		b.Run(name, func(b *testing.B) { run(b, windows) })
	}
}

func BenchmarkRegistryAdd(b *testing.B) {
	b.Run("string", func(b *testing.B) {
		benchForms(b, func(b *testing.B, windows bool) {
			r := benchRegistry(false, windows)
			r.Add("pvfs.requests", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Add("pvfs.requests", 1)
			}
		})
	})
	b.Run("handle", func(b *testing.B) {
		benchForms(b, func(b *testing.B, windows bool) {
			c := benchRegistry(false, windows).Counter("pvfs.requests")
			c.Add(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(1)
			}
		})
	})
}

func BenchmarkRegistryObserve(b *testing.B) {
	b.Run("string", func(b *testing.B) {
		benchForms(b, func(b *testing.B, windows bool) {
			r := benchRegistry(false, windows)
			for _, v := range benchVals {
				r.Observe("pvfs.service", v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Observe("pvfs.service", benchVals[i&255])
			}
		})
	})
	b.Run("handle", func(b *testing.B) {
		benchForms(b, func(b *testing.B, windows bool) {
			h := benchRegistry(false, windows).Hist("pvfs.service")
			for _, v := range benchVals {
				h.Observe(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(benchVals[i&255])
			}
		})
	})
}

// requestHandles is one pvfs request's series, resolved once.
type requestHandles struct {
	requests, bytes *Counter
	wait, service   *Hist
	size            *Hist
}

func resolveRequest(r *Registry) requestHandles {
	return requestHandles{
		requests: r.Counter("pvfs.requests"),
		bytes:    r.Counter("pvfs.bytes_written"),
		wait:     r.Hist("pvfs.queue_wait"),
		service:  r.Hist("pvfs.service"),
		size:     r.Hist("pvfs.request_bytes"),
	}
}

func (h requestHandles) record(i int) {
	v := benchVals[i&255]
	h.requests.Add(1)
	h.bytes.Add(4096)
	h.wait.ObserveTime(des.FromSeconds(v))
	h.service.ObserveTime(des.FromSeconds(v / 2))
	h.size.Observe(float64(4096 + i&255))
}

func recordRequestString(r *Registry, i int) {
	v := benchVals[i&255]
	r.Add("pvfs.requests", 1)
	r.Add("pvfs.bytes_written", 4096)
	r.ObserveTime("pvfs.queue_wait", des.FromSeconds(v))
	r.ObserveTime("pvfs.service", des.FromSeconds(v/2))
	r.Observe("pvfs.request_bytes", float64(4096+i&255))
}

// BenchmarkRegistryRequest is one pvfs request's five registry calls, in
// the order pvfs records a completed write: the string API, handles on a
// locked registry, and handles on the single-goroutine registry a run
// creates for itself.
func BenchmarkRegistryRequest(b *testing.B) {
	b.Run("string", func(b *testing.B) {
		benchForms(b, func(b *testing.B, windows bool) {
			r := benchRegistry(false, windows)
			for i := 0; i < 256; i++ {
				recordRequestString(r, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recordRequestString(r, i)
			}
		})
	})
	for _, local := range []bool{false, true} {
		name := "handle"
		if local {
			name = "handle-local"
		}
		b.Run(name, func(b *testing.B) {
			benchForms(b, func(b *testing.B, windows bool) {
				h := resolveRequest(benchRegistry(local, windows))
				for i := 0; i < 256; i++ {
					h.record(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.record(i)
				}
			})
		})
	}
}

// TestHandleRequestWindowedAllocs pins the handle path at zero allocations
// per request with windows on, once the window and buckets it lands in have
// been touched.
func TestHandleRequestWindowedAllocs(t *testing.T) {
	for _, local := range []bool{false, true} {
		h := resolveRequest(benchRegistry(local, true))
		for i := 0; i < 256; i++ {
			h.record(i)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			h.record(i)
			i++
		}); allocs != 0 {
			t.Fatalf("local=%v: windowed handle request allocates %v per op", local, allocs)
		}
	}
}
