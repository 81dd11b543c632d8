package mpi

import (
	"testing"
	"testing/quick"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// fastNet returns a config with easy arithmetic for assertions:
// 1 ms latency, 1 MB/s bandwidth, no per-message CPU, eager ≤ 1000 bytes.
func fastNet() NetConfig {
	return NetConfig{
		Latency:      des.Millisecond,
		Bandwidth:    1e6,
		EagerLimit:   1000,
		ProcsPerNode: 1,
	}
}

// spawn starts rank i running body as straight-line code.
func spawn(w *World, i int, name string, body func(r *Rank)) *des.Proc {
	r := w.Rank(i)
	return w.SpawnFSM(i, name, destest.Machine(func(*des.Proc) { body(r) }))
}

// wait awaits q on r and returns its message (nil for sends).
func wait(r *Rank, q *Request) *Message {
	var op WaitOp
	op.Init(r, q)
	destest.Await(r.Proc(), op.Step)
	return q.Message()
}

func TestSendRecvDeliversPayload(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var got any
	var at des.Time
	spawn(w, 0, "sender", func(r *Rank) {
		wait(r, r.Isend(1, 7, 500, "hello"))
	})
	spawn(w, 1, "receiver", func(r *Rank) {
		m := wait(r, r.Irecv(0, 7))
		got, at = m.Payload, r.Now()
		if m.Source != 0 || m.Dest != 1 || m.Tag != 7 || m.Bytes != 500 {
			t.Errorf("message header = %+v", m)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	// 500 B at 1 MB/s = 0.5 ms sender NIC + 1 ms wire + 0.5 ms recv NIC.
	want := 2 * des.Millisecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestEagerSendCompletesBeforeDelivery(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var sendDone, recvDone des.Time
	spawn(w, 0, "sender", func(r *Rank) {
		req := r.Isend(1, 0, 500, nil) // eager (≤1000)
		wait(r, req)
		sendDone = r.Now()
	})
	spawn(w, 1, "receiver", func(r *Rank) {
		wait(r, r.Irecv(0, 0))
		recvDone = r.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != des.Millisecond/2 {
		t.Fatalf("eager send done at %v, want 0.5ms", sendDone)
	}
	if recvDone != 2*des.Millisecond {
		t.Fatalf("recv done at %v, want 2ms", recvDone)
	}
}

func TestLargeSendCompletesOnDelivery(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var sendDone des.Time
	spawn(w, 0, "sender", func(r *Rank) {
		wait(r, r.Isend(1, 0, 2000, nil)) // > eager limit
		sendDone = r.Now()
	})
	spawn(w, 1, "receiver", func(r *Rank) {
		wait(r, r.Irecv(0, 0))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 ms send NIC + 1 ms wire + 2 ms recv NIC = 5 ms.
	if sendDone != 5*des.Millisecond {
		t.Fatalf("rendezvous send done at %v, want 5ms", sendDone)
	}
}

func TestReceiverNICSerializesConcurrentSenders(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 3, fastNet())
	var last des.Time
	for src := 0; src < 2; src++ {
		src := src
		spawn(w, src, "sender", func(r *Rank) {
			r.Isend(2, 0, 1000, nil)
		})
	}
	spawn(w, 2, "sink", func(r *Rank) {
		wait(r, r.Irecv(AnySource, 0))
		wait(r, r.Irecv(AnySource, 0))
		last = r.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Both messages: sender NICs overlap (distinct nodes), arrive at the
	// sink's recv NIC at 2 ms; NIC serializes: 3 ms then 4 ms.
	if last != 4*des.Millisecond {
		t.Fatalf("second delivery at %v, want 4ms (receiver-side serialization)", last)
	}
}

func TestSharedNodeNICSerializesSenders(t *testing.T) {
	cfg := fastNet()
	cfg.ProcsPerNode = 2 // ranks 0,1 share a node
	sim := des.New()
	w := NewWorld(sim, 4, cfg)
	var r0Done, r1Done des.Time
	spawn(w, 0, "s0", func(r *Rank) {
		wait(r, r.Isend(2, 0, 1000, nil))
		r0Done = r.Now()
	})
	spawn(w, 1, "s1", func(r *Rank) {
		wait(r, r.Isend(3, 0, 1000, nil))
		r1Done = r.Now()
	})
	spawn(w, 2, "d2", func(r *Rank) { wait(r, r.Irecv(0, 0)) })
	spawn(w, 3, "d3", func(r *Rank) { wait(r, r.Irecv(1, 0)) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r0Done != des.Millisecond || r1Done != 2*des.Millisecond {
		t.Fatalf("send completions %v, %v; want 1ms and 2ms (shared send NIC)", r0Done, r1Done)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 3, fastNet())
	var fromTag2, fromRank2 any
	spawn(w, 0, "s0", func(r *Rank) {
		r.Isend(2, 1, 10, "r0t1")
		r.Isend(2, 2, 10, "r0t2")
	})
	spawn(w, 1, "s1", func(r *Rank) {
		r.Isend(2, 1, 10, "r1t1")
	})
	spawn(w, 2, "recv", func(r *Rank) {
		fromTag2 = wait(r, r.Irecv(AnySource, 2)).Payload
		fromRank2 = wait(r, r.Irecv(1, AnyTag)).Payload
		wait(r, r.Irecv(AnySource, AnyTag)) // drain the remaining message
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fromTag2 != "r0t2" {
		t.Fatalf("tag-2 recv got %v", fromTag2)
	}
	if fromRank2 != "r1t1" {
		t.Fatalf("rank-1 recv got %v", fromRank2)
	}
}

func TestPerSourceOrderingPreserved(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	const n = 20
	var order []int
	spawn(w, 0, "s", func(r *Rank) {
		for i := 0; i < n; i++ {
			r.Isend(1, 0, 100, i)
		}
	})
	spawn(w, 1, "d", func(r *Rank) {
		for i := 0; i < n; i++ {
			order = append(order, wait(r, r.Irecv(0, 0)).Payload.(int))
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("messages reordered: %v", order)
		}
	}
}

func TestIrecvBeforeSendMatches(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var ok bool
	spawn(w, 1, "d", func(r *Rank) {
		req := r.Irecv(0, 5)
		if req.Done() {
			t.Error("request complete before any send")
		}
		m := wait(r, req)
		ok = m.Payload.(string) == "x"
	})
	spawn(w, 0, "s", func(r *Rank) {
		destest.Sleep(r.Proc(), 10*des.Millisecond)
		wait(r, r.Isend(1, 5, 10, "x"))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("posted receive did not match later send")
	}
}

// TestProbe: an arrived but unreceived message waits in the inbox until a
// receive consumes it.
func TestProbe(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	var before, after bool
	spawn(w, 0, "s", func(r *Rank) {
		wait(r, r.Isend(1, 3, 10, nil))
	})
	spawn(w, 1, "d", func(r *Rank) {
		queued := func() bool { return len(r.inbox) == 1 && r.inbox[0].Tag == 3 }
		before = queued()
		destest.Sleep(r.Proc(), 10*des.Millisecond)
		after = queued()
		wait(r, r.Irecv(0, 3))
		if len(r.inbox) != 0 {
			t.Error("probe true after message consumed")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if before {
		t.Fatal("probe true before delivery")
	}
	if !after {
		t.Fatal("probe false after delivery")
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 4, fastNet())
	b := w.NewBarrier(4)
	var releases []des.Time
	for i := 0; i < 4; i++ {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			destest.Sleep(r.Proc(), des.Time(i)*des.Second)
			var op BarrierOp
			op.Init(b, r)
			destest.Await(r.Proc(), op.Step)
			releases = append(releases, r.Now())
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Last arrival at 3 s; release delay = ceil(log2(4))·1 ms = 2 ms.
	want := 3*des.Second + 2*des.Millisecond
	for _, at := range releases {
		if at != want {
			t.Fatalf("releases %v, want all at %v", releases, want)
		}
	}
	if b.Epochs() != 1 {
		t.Fatalf("epochs = %d", b.Epochs())
	}
}

func TestBarrierReusable(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	b := w.NewBarrier(2)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			for round := 0; round < 5; round++ {
				destest.Sleep(r.Proc(), des.Time(i+1)*des.Millisecond)
				var op BarrierOp
				op.Init(b, r)
				destest.Await(r.Proc(), op.Step)
				counts[i]++
				// Ranks must stay in lockstep.
				if counts[0] != counts[1] && counts[0]-counts[1] != 0 {
					diff := counts[i] - counts[1-i]
					if diff < -1 || diff > 1 {
						t.Errorf("ranks out of lockstep: %v", counts)
					}
				}
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("rounds = %v, want 5 each", counts)
	}
	if b.Epochs() != 5 {
		t.Fatalf("epochs = %d, want 5", b.Epochs())
	}
}

func TestWaitAllAndTestSome(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	spawn(w, 0, "s", func(r *Rank) {
		reqs := []*Request{
			r.Isend(1, 0, 10, 1),
			r.Isend(1, 0, 10, 2),
			r.Isend(1, 0, 10, 3),
		}
		var op WaitAllOp
		op.Init(r, reqs)
		destest.Await(r.Proc(), op.Step)
		for i, q := range reqs {
			if !q.Done() {
				t.Errorf("request %d not done after WaitAllOp", i)
			}
		}
	})
	spawn(w, 1, "d", func(r *Rank) {
		for i := 0; i < 3; i++ {
			wait(r, r.Irecv(0, 0))
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccounting(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	spawn(w, 0, "s", func(r *Rank) {
		wait(r, r.Isend(1, 0, 100, nil))
		wait(r, r.Isend(1, 0, 200, nil))
	})
	spawn(w, 1, "d", func(r *Rank) {
		wait(r, r.Irecv(0, 0))
		wait(r, r.Irecv(0, 0))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if w.MessagesSent() != 2 || w.BytesSent() != 300 {
		t.Fatalf("accounting: %d msgs, %d bytes", w.MessagesSent(), w.BytesSent())
	}
}

// Property: no messages are lost or duplicated — for any pattern of sends
// from rank 0, rank 1 receives exactly the multiset sent, in order.
func TestPropertyNoLossNoDuplication(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		sim := des.New()
		w := NewWorld(sim, 2, fastNet())
		var got []int
		spawn(w, 0, "s", func(r *Rank) {
			for i, sz := range sizes {
				r.Isend(1, 0, int64(sz)+1, i)
			}
		})
		spawn(w, 1, "d", func(r *Rank) {
			for range sizes {
				got = append(got, wait(r, r.Irecv(0, 0)).Payload.(int))
			}
		})
		if err := sim.Run(); err != nil {
			return false
		}
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: barrier with n participants always releases everyone at
// max(arrival times) + release delay.
func TestPropertyBarrierReleaseTime(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		n := len(delaysRaw)
		if n < 1 {
			return true
		}
		if n > 32 {
			n = 32
		}
		delays := delaysRaw[:n]
		sim := des.New()
		cfg := fastNet()
		w := NewWorld(sim, n, cfg)
		b := w.NewBarrier(n)
		var maxArrive des.Time
		for _, d := range delays {
			if des.Time(d) > maxArrive {
				maxArrive = des.Time(d)
			}
		}
		steps := 0
		for v := n - 1; v > 0; v >>= 1 {
			steps++
		}
		want := maxArrive + des.Time(steps)*cfg.Latency
		okAll := true
		for i := 0; i < n; i++ {
			d := des.Time(delays[i])
			spawn(w, i, "p", func(r *Rank) {
				destest.Sleep(r.Proc(), d)
				var op BarrierOp
				op.Init(b, r)
				destest.Await(r.Proc(), op.Step)
				if r.Now() != want {
					okAll = false
				}
			})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
