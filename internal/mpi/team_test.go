package mpi

import (
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

func teamFixture(t *testing.T, n int) (*des.Simulation, *World, *Team) {
	t.Helper()
	sim := des.New()
	w := NewWorld(sim, n, fastNet())
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return sim, w, w.NewTeam(ranks)
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		sim, w, team := teamFixture(t, n)
		got := make([]any, n)
		for i := 0; i < n; i++ {
			i := i
			spawn(w, i, "p", func(r *Rank) {
				var payload any
				if i == 2%n {
					payload = "the-config"
				}
				var op BcastOp
				op.Init(team, r, 2%n, 100, payload)
				destest.Await(r.Proc(), op.Step)
				got[i] = op.Result()
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range got {
			if v != "the-config" {
				t.Fatalf("n=%d rank %d got %v", n, i, v)
			}
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	const n = 7
	const root = 5
	sim, w, team := teamFixture(t, n)
	ok := true
	for i := 0; i < n; i++ {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			var payload any
			if i == root {
				payload = 42
			}
			var op BcastOp
			op.Init(team, r, root, 8, payload)
			destest.Await(r.Proc(), op.Step)
			if op.Result() != 42 {
				ok = false
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("payload lost with non-zero root")
	}
}

func TestBcastLogarithmicDepth(t *testing.T) {
	// With a binomial tree, 16 ranks need 4 rounds, so completion should
	// be far faster than 15 sequential sends at high latency.
	cfg := fastNet()
	cfg.Latency = 10 * des.Millisecond
	const n = 16
	sim := des.New()
	w := NewWorld(sim, n, cfg)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	team := w.NewTeam(ranks)
	var last des.Time
	for i := 0; i < n; i++ {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			var op BcastOp
			op.Init(team, r, 0, 8, i == 0)
			destest.Await(r.Proc(), op.Step)
			if r.Now() > last {
				last = r.Now()
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 tree levels x ~10ms each, far below 15 x 10ms.
	if last > 80*des.Millisecond {
		t.Fatalf("bcast finished at %v; tree depth looks linear", last)
	}
}

// TestBackToBackCollectivesDoNotCrossTalk: successive broadcasts from
// different roots carry their own tags, so a member that runs ahead never
// receives the next round's payload in place of this one's.
func TestBackToBackCollectivesDoNotCrossTalk(t *testing.T) {
	const n = 4
	sim, w, team := teamFixture(t, n)
	rounds := 5
	bad := false
	for i := 0; i < n; i++ {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			var op BcastOp
			for round := 0; round < rounds; round++ {
				for root := 0; root < 2; root++ {
					var payload any
					if i == root {
						payload = 10*round + root
					}
					op.Init(team, r, root, 8, payload)
					destest.Await(r.Proc(), op.Step)
					if op.Result() != 10*round+root {
						bad = true
					}
				}
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("collective rounds interfered")
	}
}

func TestTeamSubsetOfWorld(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 6, fastNet())
	team := w.NewTeam([]int{1, 3, 5}) // workers only
	var got []any
	for _, i := range []int{1, 3, 5} {
		i := i
		spawn(w, i, "p", func(r *Rank) {
			var op BcastOp
			op.Init(team, r, 3, 8, map[bool]any{true: "x", false: nil}[i == 3])
			destest.Await(r.Proc(), op.Step)
			got = append(got, op.Result())
		})
	}
	spawn(w, 0, "outsider", func(r *Rank) { destest.Sleep(r.Proc(), des.Second) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("members = %d", len(got))
	}
	for _, v := range got {
		if v != "x" {
			t.Fatalf("subset bcast value %v", v)
		}
	}
}

func TestTeamValidation(t *testing.T) {
	sim := des.New()
	w := NewWorld(sim, 3, fastNet())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ranks accepted")
		}
	}()
	w.NewTeam([]int{1, 1})
}
