package mpi

import (
	"math"
	"testing"

	"s3asim/internal/des"
)

// TestEagerSendAllocs pins the pooled transfer: a steady eager Isend and
// its delivery allocate only the Message and the Request callers hold.
func TestEagerSendAllocs(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 4, Myrinet2000())
	dst := w.Rank(2)
	send := func() {
		w.Rank(0).Isend(2, 0, 1024, nil)
		sim.RunUntil(math.MaxInt64)
		dst.inbox = dst.inbox[:0]
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if got := w.MessagesSent(); got != 4 {
		t.Fatalf("warm-up sent %d messages, want 4", got)
	}
	if allocs := testing.AllocsPerRun(100, send); allocs > 2 {
		t.Fatalf("eager Isend + delivery allocates %v times, want at most 2 (Message and Request)", allocs)
	}
}
