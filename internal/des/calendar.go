package des

import "unsafe"

// entry is one calendar entry. Entries with equal times fire in insertion
// order (seq), which keeps the simulation deterministic. An entry holds no
// pointer: its operand — a *Proc (evStart, evResume), a *waiter (evWake,
// evBroadcast chain head, evTimer) or a closure (evFunc), discriminated by
// kind — lives in the calendar's operand arena at slot. The heap array is
// therefore never scanned by the GC, and moving an entry during a sift pays
// no write barrier.
type entry struct {
	t    Time
	seq  uint64
	slot uint32
	kind evKind
}

// before reports whether a fires before b: (t, seq) order. Sequence numbers
// are unique, so this is a total order and pops are exactly (t, seq).
func (a *entry) before(b *entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// calendar is the kernel's event queue: a 4-ary min-heap of pointer-free
// entries plus the arena holding their operands. A 4-ary heap is half as
// deep as a binary one, and both sifts move a hole (one copy per level)
// instead of swapping. An operand is written once on push and cleared on
// pop, so the calendar keeps nothing alive that is not queued.
type calendar struct {
	h    []entry
	args []unsafe.Pointer // operand arena: args[e.slot] while e is queued
	free []uint32         // arena slots no queued entry holds
}

// initialCalendarCap preallocates the calendar. Paper-scale runs execute
// ≈300–400 k events, but the calendar only holds the pending ones — a few
// thousand at peak — so a fixed preallocation absorbs the append-growth
// reallocations of a whole run without noticeable idle cost.
const initialCalendarCap = 4096

func newCalendar() calendar {
	return calendar{
		h:    make([]entry, 0, initialCalendarCap),
		args: make([]unsafe.Pointer, 0, initialCalendarCap),
		free: make([]uint32, 0, initialCalendarCap),
	}
}

// push queues an entry at (t, seq) whose operand is arg.
func (c *calendar) push(t Time, seq uint64, kind evKind, arg unsafe.Pointer) {
	var slot uint32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
		c.args[slot] = arg
	} else {
		slot = uint32(len(c.args))
		c.args = append(c.args, arg)
	}
	e := entry{t: t, seq: seq, slot: slot, kind: kind}
	h := append(c.h, entry{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	c.h = h
}

// pop removes the earliest entry and returns its time, kind and operand,
// freeing the operand's slot. The calendar must not be empty.
func (c *calendar) pop() (Time, evKind, unsafe.Pointer) {
	h := c.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		// Sift the hole at the root down to where the last entry fits.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			m := first
			if first+3 < n {
				// All four children: a two-round tournament.
				kids := h[first : first+4 : first+4]
				a, b := 0, 2
				if kids[1].before(&kids[0]) {
					a = 1
				}
				if kids[3].before(&kids[2]) {
					b = 3
				}
				if kids[b].before(&kids[a]) {
					a = b
				}
				m += a
			} else {
				for j := first + 1; j < n; j++ {
					if h[j].before(&h[m]) {
						m = j
					}
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	c.h = h
	arg := c.args[top.slot]
	c.args[top.slot] = nil
	c.free = append(c.free, top.slot)
	return top.t, top.kind, arg
}

// reset empties the calendar, keeping its storage and releasing every
// operand it still held to the GC.
func (c *calendar) reset() {
	clear(c.args)
	c.h = c.h[:0]
	c.args = c.args[:0]
	c.free = c.free[:0]
}
