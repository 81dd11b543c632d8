package des

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// laneDelays are the After delays checkCalendar issues: zero (the now lane)
// and one more nonzero delay than the calendar has fixed-delay lanes, so
// lanes are rekeyed as they drain and a push with every lane taken falls
// back to the heap.
var laneDelays = [...]Time{0, 1, 4, 7, 12}

// checkCalendar replays data as an interleaving of calendar operations on a
// Simulation and checks it against a reference list of pending events.
// Every byte pair is one operation:
//
//	op%6 == 0:    At(now+arg%16) (small offsets make equal-time ties)
//	op%6 == 1, 2: After(laneDelays[arg%5]) (the lanes and their fallback)
//	op%6 == 3:    At(now−arg%16) (clamped to now, so the now lane)
//	op%6 == 4:    RunUntil(now+arg%32)
//	op%6 == 5:    Reset when arg is 0, otherwise RunUntil(now)
//
// and a final Run drains the calendar. Each firing event consumes the next
// byte pair and, when op%4 is 0, pushes a child At(now+arg%16), when op%4
// is 2, a child After(laneDelays[arg%5]), so pushes also interleave with
// pops inside a run. It asserts that each pop is the pending event least by
// (t, seq) — so the pop order is a stable sort by time of the insertion
// order — that RunUntil leaves nothing at or before its limit, and that the
// operand arena holds exactly the operands of the entries queued in the
// heap and the lanes: no slot keeps one after its pop or after Reset.
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
		queued := append([]entry(nil), c.h...)
		for i := range c.lanes {
			l := &c.lanes[i]
			for k := uint32(0); k < l.n; k++ {
				e := l.ring[(l.head+k)&uint32(len(l.ring)-1)]
				if k > 0 && !queued[len(queued)-1].before(&e) {
					t.Fatalf("%s: lane %d out of (t, seq) order at entry %d", where, i, k)
				}
				queued = append(queued, e)
			}
		}
		if held != len(queued) || len(c.free)+len(queued) != len(c.args) {
			t.Fatalf("%s: arena holds %d operands in %d slots (%d free) for %d queued entries",
				where, held, len(c.args), len(c.free), len(queued))
		}
		for _, slot := range c.free {
			if c.args[slot] != nil {
				t.Fatalf("%s: free slot %d still holds an operand", where, slot)
			}
		}
		for _, e := range queued {
			if c.args[e.slot] == nil {
				t.Fatalf("%s: queued entry (t=%d seq=%d) lost its operand", where, e.t, e.seq)
			}
		}
		if s.PendingEvents() != len(pending) || len(queued) != len(pending) {
			t.Fatalf("%s: %d pending events (%d queued), reference holds %d",
				where, s.PendingEvents(), len(queued), len(pending))
		}
	}
	// push queues one reference event at want through schedule (At or
	// After); when it fires it checks the pop order and may push a child.
	var push func(want Time, schedule func(fn func()))
	at := func(t Time) {
		want := t
		if want < s.Now() {
			want = s.Now()
		}
		push(want, func(fn func()) { s.At(t, fn) })
	}
	after := func(arg byte) {
		d := laneDelays[arg%byte(len(laneDelays))]
		push(s.Now()+d, func(fn func()) { s.After(d, fn) })
	}
	push = func(want Time, schedule func(fn func())) {
		id := nextID
		nextID++
		seq++
		pending = append(pending, ref{t: want, seq: seq, id: id})
		schedule(func() {
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
			if op, arg, ok := next(); ok {
				switch op % 4 {
				case 0:
					at(s.Now() + Time(arg%16))
				case 2:
					after(arg)
				}
			}
		})
	}
	for {
		op, arg, ok := next()
		if !ok {
			break
		}
		switch op % 6 {
		case 0:
			at(s.Now() + Time(arg%16))
		case 1, 2:
			after(arg)
		case 3:
			at(s.Now() - Time(arg%16))
		case 4, 5:
			if op%6 == 5 && arg == 0 {
				s.Reset()
				pending, seq = pending[:0], 0
				if s.cal.len() != 0 || len(s.cal.args) != 0 {
					t.Fatalf("reset left %d queued entries in %d arena slots", s.cal.len(), len(s.cal.args))
				}
				for _, a := range s.cal.args[:cap(s.cal.args)] {
					if a != nil {
						t.Fatal("reset left an operand in the arena's storage")
					}
				}
				break
			}
			limit := s.Now()
			if op%6 == 4 {
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
				data[i] = byte(6*rng.Intn(42) + rng.Intn(4))
			}
		}
		checkCalendar(t, data)
	}
}

// TestAfterRouting pins which structure each push lands in: present-time
// pushes in lane 0, each fixed After delay in a lane of its own until the
// lanes run out, the rest in the heap; a drained lane takes a new delay.
func TestAfterRouting(t *testing.T) {
	s := New()
	var got []int
	mark := func(id int) func() { return func() { got = append(got, id) } }
	s.After(9, mark(0)) // lane keyed 9
	s.At(0, mark(1))    // now lane
	s.After(3, mark(2)) // lane keyed 3
	s.After(9, mark(3))
	s.After(5, mark(4)) // lane keyed 5: the last free lane
	s.After(7, mark(5)) // every lane taken: heap
	s.At(7, mark(6))    // heap
	s.After(0, mark(7)) // now lane
	lanes := func() (n [laneCount]uint32, delay [laneCount]Time) {
		for i := range s.cal.lanes {
			n[i], delay[i] = s.cal.lanes[i].n, s.cal.lanes[i].delay
		}
		return n, delay
	}
	n, delay := lanes()
	if n != [laneCount]uint32{2, 2, 1, 1} || delay != [laneCount]Time{0, 9, 3, 5} || len(s.cal.h) != 2 {
		t.Fatalf("lanes hold %v keyed %v with %d heap entries, want [2 2 1 1] keyed [0 9 3 5] with 2",
			n, delay, len(s.cal.h))
	}
	s.RunUntil(3) // drains lane 3 (and the now lane)
	s.After(7, mark(8))
	if n, delay = lanes(); n[2] != 1 || delay[2] != 7 {
		t.Fatalf("after draining the 3 lane: lanes hold %v keyed %v, want lane 2 keyed 7 with 1", n, delay)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 7, 2, 4, 5, 6, 0, 3, 8}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestLaneGrowsAcrossWrap fills a lane past its initial ring once its
// entries wrap around the ring's end, so the doubling copy must unroll the
// ring in order.
func TestLaneGrowsAcrossWrap(t *testing.T) {
	c := newCalendar()
	var p Proc
	seq := uint64(0)
	push := func(now Time) {
		seq++
		c.pushAfter(5, now+5, seq, evResume, unsafe.Pointer(&p))
	}
	for i := 0; i < initialLaneCap-10; i++ {
		push(0)
	}
	now := Time(0)
	for i := 0; i < initialLaneCap/2; i++ {
		now, _, _, _ = c.pop(endOfTime)
	}
	for i := 0; i < initialLaneCap; i++ {
		push(now + Time(i))
	}
	if l := &c.lanes[1]; len(l.ring) != 2*initialLaneCap || l.delay != 5 {
		t.Fatalf("lane 1 ring %d keyed %d, want %d keyed 5", len(l.ring), l.delay, 2*initialLaneCap)
	}
	last := entry{t: now}
	for c.len() > 0 {
		head := c.lanes[1].ring[c.lanes[1].head]
		tt, _, _, _ := c.pop(endOfTime)
		if tt != head.t || !last.before(&head) {
			t.Fatalf("popped (%d, %d) after (%d, %d)", head.t, head.seq, last.t, last.seq)
		}
		last = head
	}
	if len(c.free) != len(c.args) {
		t.Fatalf("drained calendar holds %d of %d arena slots", len(c.args)-len(c.free), len(c.args))
	}
}

func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 3, 2, 9, 3, 0, 4, 0, 0, 1, 3, 31})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 15, 4, 1, 0, 5, 3, 4, 0, 2})
	f.Add([]byte{5, 1, 10, 2, 15, 3, 20, 4, 8, 7, 9, 0, 0, 1, 13, 1})
	f.Add([]byte{1, 1, 1, 2, 2, 3, 1, 4, 1, 1, 4, 5, 2, 2, 5, 0, 1, 4, 2, 3})
	f.Fuzz(checkCalendar)
}
