package mpi

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// This file pins a message's trip through the network (send NIC → wire
// latency plus fault delay → recv NIC → delivery) on every branch: eager
// and rendezvous sends, delayed and lost messages, and delivery to a dead
// rank. The hash and event count were captured before Isend's stages moved
// into pooled transfers, so they hold that rewrite to the old schedule.

// tagFate loses every tag-7 message and delays every tag-3 message.
type tagFate struct{}

func (tagFate) MessageFate(src, dst, tag int, bytes int64) (bool, des.Time) {
	switch tag {
	case 7:
		return true, 0
	case 3:
		return false, 40 * des.Microsecond
	}
	return false, 0
}

func transferGoldenRun(t *testing.T) (string, uint64) {
	t.Helper()
	sim := des.New()
	w := NewWorld(sim, 4, Myrinet2000())
	w.SetFaultModel(tagFate{})
	rec := causal.NewRecorder()
	rec.SetCaptureFlows(true)
	w.SetCausal(rec)

	const big = 256 * 1024 // above the eager limit: rendezvous
	var b strings.Builder
	var sends []*Request
	spawn(w, 0, "r0", func(r *Rank) {
		destest.Sleep(r.Proc(), 10*des.Microsecond) // rank 3 dies first
		rec.Busy(r.Proc(), causal.CatCompute, 0, r.Now())
		qs := []*Request{
			r.Isend(1, 0, 512, "eager"),
			r.Isend(1, 3, 2048, "delayed"),
			r.Isend(2, 0, big, "rendezvous"),
			r.Isend(1, 7, 128, "lost eager"),
			r.Isend(2, 7, big, "lost rendezvous"),
			r.Isend(3, 0, 64, "eager to dead"),
			r.Isend(3, 1, big, "rendezvous to dead"),
			r.Isend(2, 3, big, "delayed rendezvous"),
		}
		sends = append(sends, qs...)
		var op WaitAnyOp
		for left := len(qs); left > 0; left-- {
			op.InitUntil(r, qs, des.Second)
			destest.Await(r.Proc(), op.Step)
			i := op.Index
			fmt.Fprintf(&b, "send %d done=%v dropped=%v\n", i, r.Now(), qs[i].Dropped())
			qs[i] = nil
		}
	})
	spawn(w, 1, "r1", func(r *Rank) {
		for k := 0; k < 2; k++ {
			m := wait(r, r.Irecv(0, AnyTag))
			fmt.Fprintf(&b, "r1 got tag=%d %v at %v\n", m.Tag, m.Payload, r.Now())
		}
	})
	spawn(w, 2, "r2", func(r *Rank) {
		for k := 0; k < 2; k++ {
			m := wait(r, r.Irecv(AnySource, AnyTag))
			fmt.Fprintf(&b, "r2 got tag=%d %v at %v\n", m.Tag, m.Payload, r.Now())
		}
	})
	spawn(w, 3, "r3", func(r *Rank) { w.Kill(3) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, q := range sends {
		fmt.Fprintf(&b, "send %d finally dropped=%v\n", i, q.Dropped())
	}
	fmt.Fprintf(&b, "msgs=%d bytes=%d dead=%d\n", w.MessagesSent(), w.BytesSent(), w.MessagesToDead())
	fmt.Fprintf(&b, "flows=%+v\n", rec.Flows())
	fmt.Fprintf(&b, "causal %v intervals=%d\n", rec.Totals(), rec.Intervals())
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), sim.Events()
}

// TestTransferGolden pins send completion times and Dropped flags,
// receive times and order, the world's counters, and the causal flows of a
// program that takes every branch of a message's trip.
func TestTransferGolden(t *testing.T) {
	const (
		wantHash   = "177afc881d4f7f57a1528b9a6d5215c86927a0f271169cfb22c08ea9f0d8fec0"
		wantEvents = 40
	)
	got, events := transferGoldenRun(t)
	if got != wantHash || events != wantEvents {
		t.Errorf("message pipeline drifted:\n got %s events=%d\nwant %s events=%d", got, events, wantHash, wantEvents)
	}
}
