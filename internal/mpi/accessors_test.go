package mpi

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

func TestWorldAccessors(t *testing.T) {
	sim := des.New()
	cfg := Myrinet2000()
	w := NewWorld(sim, 4, cfg)
	if w.Sim() != sim || w.Size() != 4 {
		t.Fatal("world accessors wrong")
	}
	if w.Config().Bandwidth != cfg.Bandwidth || w.Config().ProcsPerNode != 2 {
		t.Fatalf("config = %+v", w.Config())
	}
	if w.Rank(2).Rank() != 2 || w.Rank(2).World() != w {
		t.Fatal("rank accessors wrong")
	}
	send, recv := w.NodeNIC(0)
	send2, recv2 := w.NodeNIC(1) // same node (2 procs/node)
	if send != send2 || recv != recv2 {
		t.Fatal("ranks 0 and 1 should share a node's NICs")
	}
	send3, _ := w.NodeNIC(2)
	if send3 == send {
		t.Fatal("rank 2 should live on a different node")
	}
}

func TestMyrinet2000Shape(t *testing.T) {
	cfg := Myrinet2000()
	if cfg.Latency <= 0 || cfg.Bandwidth <= 0 || cfg.EagerLimit <= 0 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestUncontendNodeRemovesSerialization(t *testing.T) {
	// Two rendezvous-size messages into one rank: serialized on a normal
	// recv NIC, parallel after UncontendNode.
	run := func(uncontend bool) des.Time {
		sim := des.New()
		w := NewWorld(sim, 3, fastNet())
		if uncontend {
			w.UncontendNode(2, 8)
		}
		var last des.Time
		for src := 0; src < 2; src++ {
			src := src
			spawn(w, src, "s", func(r *Rank) { r.Isend(2, 0, 2000, nil) })
		}
		spawn(w, 2, "d", func(r *Rank) {
			wait(r, r.Irecv(AnySource, 0))
			wait(r, r.Irecv(AnySource, 0))
			last = r.Now()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	serial, parallel := run(false), run(true)
	if parallel >= serial {
		t.Fatalf("uncontended (%v) not faster than contended (%v)", parallel, serial)
	}
}

func TestProcAndMessageAccessors(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	spawn(w, 0, "s", func(r *Rank) {
		if r.Proc() == nil || r.Proc().Name() != "s" {
			t.Error("Proc accessor wrong")
		}
		req := r.Isend(1, 0, 10, "x")
		wait(r, req)
		if req.Message() != nil {
			t.Error("send request should carry no message")
		}
	})
	spawn(w, 1, "d", func(r *Rank) {
		req := r.Irecv(0, 0)
		m := wait(r, req)
		if !req.Done() || req.Message() != m || m.Payload != "x" {
			t.Error("recv request accessors wrong")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAnyEmptyPanics(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 1, fastNet())
	panicked := false
	spawn(w, 0, "p", func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		new(WaitAnyOp).Init(r, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("WaitAnyOp over an empty set should panic")
	}
}

func TestTeamSizeAndForeignRank(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 4, fastNet())
	team := w.NewTeam([]int{0, 1})
	if team.Size() != 2 {
		t.Fatalf("Size = %d", team.Size())
	}
	panicked := false
	spawn(w, 3, "foreign", func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		new(BcastOp).Init(team, r, 0, 8, nil)
	})
	spawn(w, 0, "a", func(r *Rank) { destest.Sleep(r.Proc(), 1) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("foreign rank in team collective should panic")
	}
}

func TestEagerRendezvousBoundary(t *testing.T) {
	// A message exactly at the eager limit completes sender-side; one byte
	// over completes only on delivery.
	cfg := fastNet() // eager limit 1000, bw 1 MB/s, latency 1 ms
	for _, tc := range []struct {
		bytes int64
		eager bool
	}{
		{1000, true},
		{1001, false},
	} {
		sim := des.New()
		w := NewWorld(sim, 2, cfg)
		var sendDone des.Time
		spawn(w, 0, "s", func(r *Rank) {
			wait(r, r.Isend(1, 0, tc.bytes, nil))
			sendDone = r.Now()
		})
		spawn(w, 1, "d", func(r *Rank) { wait(r, r.Irecv(0, 0)) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		senderOnly := des.BytesOver(tc.bytes, cfg.Bandwidth)
		if tc.eager && sendDone != senderOnly {
			t.Fatalf("%d bytes: send done at %v, want eager %v", tc.bytes, sendDone, senderOnly)
		}
		if !tc.eager && sendDone <= senderOnly {
			t.Fatalf("%d bytes: send done at %v, want rendezvous (later than %v)",
				tc.bytes, sendDone, senderOnly)
		}
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 2, fastNet())
	panicked := false
	spawn(w, 0, "s", func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Isend(5, 0, 10, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("send to out-of-range rank accepted")
	}
}
