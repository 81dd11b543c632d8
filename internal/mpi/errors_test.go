package mpi

import (
	"errors"
	"strings"
	"testing"

	"s3asim/internal/des"
)

// wantProto runs f and asserts it panics with a *ProtocolError for op — the
// pinning contract for every user-reachable invariant violation: a typed
// value harnesses can discriminate, never a bare string panic.
func wantProto(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", op)
		}
		pe, ok := r.(*ProtocolError)
		if !ok {
			t.Fatalf("%s: panic value %T, want *ProtocolError", op, r)
		}
		if pe.Op != op {
			t.Fatalf("panic Op = %q, want %q", pe.Op, op)
		}
		if pe.Error() == "" || !strings.HasPrefix(pe.Error(), "mpi: ") {
			t.Fatalf("%s: malformed message %q", op, pe.Error())
		}
	}()
	f()
}

// inProc runs body inside a one-off spawned rank process and propagates any
// panic it raised to the caller's goroutine (sim.Run wraps proc panics).
func inProc(t *testing.T, w *World, rank int, body func(r *Rank)) {
	t.Helper()
	w.Spawn(rank, "t", body)
	if err := w.Sim().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolErrorNewWorldEmpty(t *testing.T) {
	wantProto(t, "NewWorld", func() { NewWorld(des.New(), 0, fastNet()) })
}

func TestProtocolErrorSpawnTwice(t *testing.T) {
	w := NewWorld(des.New(), 1, fastNet())
	w.Spawn(0, "first", func(r *Rank) {})
	wantProto(t, "Spawn", func() { w.Spawn(0, "second", func(r *Rank) {}) })
}

func TestProtocolErrorRespawnMisuse(t *testing.T) {
	w := NewWorld(des.New(), 2, fastNet())
	wantProto(t, "Respawn", func() { w.Respawn(0, "x", machineFunc(func(*des.Proc) {})) })

	w.Spawn(0, "alive", func(r *Rank) {})
	if err := w.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	// Rank 0 ran to completion but was never killed.
	wantProto(t, "Respawn", func() { w.Respawn(0, "x", machineFunc(func(*des.Proc) {})) })
}

func TestProtocolErrorIsendOutsideWorld(t *testing.T) {
	for _, dest := range []int{-1, 3} {
		sim := des.New()
		w := NewWorld(sim, 3, fastNet())
		w.Spawn(0, "sender", func(r *Rank) {
			wantProto(t, "Isend", func() { r.Isend(dest, 0, 8, nil) })
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProtocolErrorWaitAnyEmpty(t *testing.T) {
	w := NewWorld(des.New(), 1, fastNet())
	inProc(t, w, 0, func(r *Rank) {
		wantProto(t, "WaitAny", func() { r.WaitAny(nil) })
	})
}

func TestProtocolErrorBarrier(t *testing.T) {
	w := NewWorld(des.New(), 2, fastNet())
	wantProto(t, "NewBarrier", func() { w.NewBarrier(0) })

	b := w.NewBarrier(1)
	b.Deregister()
	wantProto(t, "Barrier.Deregister", func() { b.Deregister() })
}

func TestProtocolErrorTeamMisuse(t *testing.T) {
	w := NewWorld(des.New(), 4, fastNet())
	wantProto(t, "NewTeam", func() { w.NewTeam(nil) })
	wantProto(t, "NewTeam", func() { w.NewTeam([]int{1, 1}) })

	team := w.NewTeam([]int{0, 1})
	inProc(t, w, 2, func(r *Rank) {
		wantProto(t, "Team", func() { team.Bcast(r, 0, 8, nil) })
	})
}

func TestProtocolErrorCollectiveRootOutsideTeam(t *testing.T) {
	w := NewWorld(des.New(), 4, fastNet())
	team := w.NewTeam([]int{0, 1})
	inProc(t, w, 0, func(r *Rank) {
		wantProto(t, "Bcast", func() { team.Bcast(r, 3, 8, nil) })
		wantProto(t, "Gather", func() { team.Gather(r, 3, 8, nil) })
		wantProto(t, "Reduce", func() {
			team.Reduce(r, 3, 8, 0, func(a, b float64) float64 { return a })
		})
	})
}

// TestProtocolErrorIsError pins that the typed panic value is a usable
// error: errors.As finds it through wrapping, and the rank is reported.
func TestProtocolErrorIsError(t *testing.T) {
	pe := &ProtocolError{Op: "Isend", Rank: 9, Reason: "destination outside world"}
	var got *ProtocolError
	if !errors.As(error(pe), &got) || got.Rank != 9 {
		t.Fatalf("errors.As failed on %v", pe)
	}
	if want := "mpi: Isend: destination outside world (rank 9)"; pe.Error() != want {
		t.Fatalf("Error() = %q, want %q", pe.Error(), want)
	}
}
