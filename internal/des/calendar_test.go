package des

import (
	"math/rand"
	"testing"
)

// checkCalendar replays data as an interleaving of calendar operations on a
// Simulation and checks it against a reference list of pending events.
// Every byte pair is one operation:
//
//	op%5 == 0, 1: push at now+arg%16 (small offsets make equal-time ties)
//	op%5 == 2:    push at now−arg%16 (clamped to now)
//	op%5 == 3:    RunUntil(now+arg%32)
//	op%5 == 4:    Reset when arg is 0, otherwise RunUntil(now)
//
// and a final Run drains the calendar. Each firing event consumes the next
// byte pair and, when its op is even, pushes a child at now+arg%16, so
// pushes also interleave with pops inside a run. It asserts that each pop
// is the pending event least by (t, seq) — so the pop order is a stable
// sort by time of the insertion order — that RunUntil leaves nothing at or
// before its limit, and that the operand arena holds exactly the queued
// events' operands: no slot keeps one after its pop or after Reset.
func checkCalendar(t *testing.T, data []byte) {
	type ref struct {
		t   Time
		seq uint64
		id  int
	}
	s := New()
	var pending []ref
	var seq uint64
	nextID := 0
	next := func() (byte, byte, bool) {
		if len(data) < 2 {
			return 0, 0, false
		}
		op, arg := data[0], data[1]
		data = data[2:]
		return op, arg, true
	}
	checkArena := func(where string) {
		t.Helper()
		c := &s.cal
		held := 0
		for _, a := range c.args {
			if a != nil {
				held++
			}
		}
		if held != len(c.h) || len(c.free)+len(c.h) != len(c.args) {
			t.Fatalf("%s: arena holds %d operands in %d slots (%d free) for %d queued entries",
				where, held, len(c.args), len(c.free), len(c.h))
		}
		for _, slot := range c.free {
			if c.args[slot] != nil {
				t.Fatalf("%s: free slot %d still holds an operand", where, slot)
			}
		}
		for _, e := range c.h {
			if c.args[e.slot] == nil {
				t.Fatalf("%s: queued entry (t=%d seq=%d) lost its operand", where, e.t, e.seq)
			}
		}
		if s.PendingEvents() != len(pending) {
			t.Fatalf("%s: %d pending events, reference holds %d", where, s.PendingEvents(), len(pending))
		}
	}
	var push func(at Time)
	push = func(at Time) {
		id := nextID
		nextID++
		seq++
		want := at
		if want < s.Now() {
			want = s.Now()
		}
		pending = append(pending, ref{t: want, seq: seq, id: id})
		s.At(at, func() {
			least := 0
			for i, r := range pending {
				if r.t < pending[least].t || (r.t == pending[least].t && r.seq < pending[least].seq) {
					least = i
				}
			}
			if r := pending[least]; r.id != id || r.t != s.Now() {
				t.Fatalf("popped event %d at %d, want event %d at %d", id, s.Now(), r.id, r.t)
			}
			pending = append(pending[:least], pending[least+1:]...)
			checkArena("pop")
			if op, arg, ok := next(); ok && op%2 == 0 {
				push(s.Now() + Time(arg%16))
			}
		})
	}
	for {
		op, arg, ok := next()
		if !ok {
			break
		}
		switch op % 5 {
		case 0, 1:
			push(s.Now() + Time(arg%16))
		case 2:
			push(s.Now() - Time(arg%16))
		case 3, 4:
			if op%5 == 4 && arg == 0 {
				s.Reset()
				pending, seq = pending[:0], 0
				if len(s.cal.args) != 0 {
					t.Fatalf("reset left %d arena slots", len(s.cal.args))
				}
				for _, a := range s.cal.args[:cap(s.cal.args)] {
					if a != nil {
						t.Fatal("reset left an operand in the arena's storage")
					}
				}
				break
			}
			limit := s.Now()
			if op%5 == 3 {
				limit += Time(arg % 32)
			}
			s.RunUntil(limit)
			for _, r := range pending {
				if r.t <= limit {
					t.Fatalf("RunUntil(%d) left event %d at %d queued", limit, r.id, r.t)
				}
			}
		}
		checkArena("op")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("Run drained the calendar with %d reference events unfired", len(pending))
	}
	checkArena("drain")
}

// TestCalendarOrder drives long random interleavings (deep enough for
// five levels of the 4-ary heap) through checkCalendar.
func TestCalendarOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		// Bias toward pushes so the calendar grows to hundreds of entries.
		for i := 0; i < len(data); i += 2 {
			if rng.Intn(4) != 0 {
				data[i] = byte(5 * rng.Intn(51))
			}
		}
		checkCalendar(t, data)
	}
}

func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 9, 3, 0, 4, 0, 0, 1, 3, 31})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 15, 4, 1, 0, 5, 3, 4, 0, 2})
	f.Add([]byte{5, 1, 10, 2, 15, 3, 20, 4, 8, 7, 9, 0, 0, 1, 13, 1})
	f.Fuzz(checkCalendar)
}
