package main

import (
	"container/heap"
	"hash/fnv"
	"math/rand"
	"time"
)

// The host this benchmark runs on is shared: its speed for a single thread
// changes by tens of percent over seconds as neighbours' load comes and
// goes, and a pass's host seconds change with it. Before every cell of a
// timed pass the benchmark therefore runs a fixed reference loop that does
// the same kind of work as the workload's hot path, and reports the pass in
// multiples of the loop's host seconds measured alongside it (wall_cal).
// The loops are benchmark code, so a change to the simulator moves wall_cal
// exactly as it moves the pass's host seconds.
//
// Two loops cover the workloads. calHeapMap (an event heap, map lookups and
// small allocations) tracks batch and chaos, whose host time is the event
// calendar, the extent map and protocol bookkeeping. calPayload (seeding
// math/rand, drawing bytes and hashing them) tracks verify, whose host time
// is payload bytes. Measured over 15-second windows of one process on a
// loaded host, each loop held its workload's calibrated pass to an
// interquartile range of 2–6% of the median where raw pass seconds spread
// 6–29%; the other loop did worse on each (10% and 22%), and a variant of
// calHeapMap that also walked a few megabytes of pointers did worse still.

// calEvent is a calendar entry of the reference loop's event heap.
type calEvent struct {
	at, seq int64
}

type calHeap []calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

const (
	calHeapSize = 1 << 12 // pending events
	calMapSize  = 1 << 13 // live map entries, at most
	calSteps    = 10000   // heap operations per call
)

// calSink keeps the reference loop's results live.
var calSink int64

// calHeapMap runs the event-heap reference loop once and returns its host
// seconds. Its work is the same on every call.
func calHeapMap() float64 {
	t0 := time.Now()
	h := make(calHeap, 0, calHeapSize)
	m := make(map[int64][]byte)
	x := uint64(88172645463325252)
	rnd := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x >> 1)
	}
	for i := 0; i < calHeapSize; i++ {
		heap.Push(&h, calEvent{at: rnd() & 0xffffff, seq: int64(i)})
	}
	var sum int64
	for i := 0; i < calSteps; i++ {
		e := heap.Pop(&h).(calEvent)
		r := rnd()
		e.at += r & 0xffff
		e.seq = int64(calHeapSize + i)
		heap.Push(&h, e)
		k := r & (calMapSize - 1)
		if b, ok := m[k]; ok {
			sum += int64(len(b))
			delete(m, k)
		} else {
			m[k] = make([]byte, 64+(r>>20)&255)
		}
	}
	calSink += sum
	return time.Since(t0).Seconds()
}

// calPayload runs the payload reference loop once and returns its host
// seconds: calPayloadSeeds fresh math/rand sources, each drawing
// calPayloadBytes bytes that are FNV-hashed. Its work is the same on every
// call.
func calPayload() float64 {
	const (
		calPayloadSeeds = 150
		calPayloadBytes = 4096
	)
	t0 := time.Now()
	buf := make([]byte, calPayloadBytes)
	h := fnv.New64a()
	for i := 0; i < calPayloadSeeds; i++ {
		r := rand.New(rand.NewSource(int64(i)*7919 + 1))
		r.Read(buf)
		h.Write(buf)
	}
	calSink += int64(h.Sum64() & 1)
	return time.Since(t0).Seconds()
}
