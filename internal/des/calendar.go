package des

import (
	"math"
	"unsafe"
)

// entry is one calendar entry. Entries with equal times fire in insertion
// order (seq), which keeps the simulation deterministic. An entry holds no
// pointer: its operand — a *Proc (evResume), a *waiter (evWake,
// evBroadcast chain head, evTimer) or a closure (evFunc), discriminated by
// kind — lives in the calendar's operand arena at slot. The heap array and
// the lane rings are therefore never scanned by the GC, and moving an entry
// during a sift pays no write barrier.
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

// laneCount is the number of FIFO lanes beside the heap. Lane 0 holds the
// entries pushed at the present time; each other lane holds the entries of
// one fixed After delay (a wire latency).
const laneCount = 4

// lane is a FIFO ring of entries that were pushed already sorted: every
// entry in it was pushed at time now+delay, and now never decreases while
// seq always increases, so the ring is in (t, seq) order and its head is its
// least entry.
type lane struct {
	ring  []entry // power-of-two length
	head  uint32  // ring index of the oldest entry
	n     uint32  // queued entries
	delay Time    // the After delay the lane holds; changed only while empty
}

// calendar is the kernel's event queue: a 4-ary min-heap and laneCount FIFO
// lanes of pointer-free entries, plus the arena holding their operands. A
// pop takes the least of the heap top and the lane heads, which is exactly
// the order a single heap of every entry would give. A 4-ary heap is half
// as deep as a binary one, and both sifts move a hole (one copy per level)
// instead of swapping. An operand is written once on push and cleared on
// pop, so the calendar keeps nothing alive that is not queued.
type calendar struct {
	h     []entry
	lanes [laneCount]lane
	args  []unsafe.Pointer // operand arena: args[e.slot] while e is queued
	free  []uint32         // arena slots no queued entry holds
}

// initialCalendarCap preallocates the heap and the operand arena, and
// initialLaneCap each lane's ring. A run executes hundreds of thousands of
// events, but the calendar only holds the pending ones: at most 1,468 in
// the heap and 352 in one lane on the batch benchmark workload. A
// preallocation near those peaks absorbs most of a run's append growth,
// and the rest grows once (Reset keeps the storage). It is kept near them
// because every preallocated entry is live heap that the GC paces its
// goal by.
const (
	initialCalendarCap = 2048
	initialLaneCap     = 64
)

func newCalendar() calendar {
	c := calendar{
		h:    make([]entry, 0, initialCalendarCap),
		args: make([]unsafe.Pointer, 0, initialCalendarCap),
		free: make([]uint32, 0, initialCalendarCap),
	}
	for i := range c.lanes {
		c.lanes[i].ring = make([]entry, initialLaneCap)
	}
	return c
}

// len reports how many entries are queued, in the heap and the lanes.
func (c *calendar) len() int {
	n := len(c.h)
	for i := range c.lanes {
		n += int(c.lanes[i].n)
	}
	return n
}

// hold stores arg in a free arena slot and returns the slot.
func (c *calendar) hold(arg unsafe.Pointer) uint32 {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		c.args[slot] = arg
		return slot
	}
	c.args = append(c.args, arg)
	return uint32(len(c.args) - 1)
}

// push queues an entry at (t, seq) whose operand is arg in the heap.
func (c *calendar) push(t Time, seq uint64, kind evKind, arg unsafe.Pointer) {
	e := entry{t: t, seq: seq, slot: c.hold(arg), kind: kind}
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

// pushNow queues an entry at the present time t in lane 0. The caller
// guarantees that t is the current time.
func (c *calendar) pushNow(t Time, seq uint64, kind evKind, arg unsafe.Pointer) {
	c.lanes[0].push(entry{t: t, seq: seq, slot: c.hold(arg), kind: kind})
}

// pushAfter queues an entry at t = now+d, d > 0, in the lane keyed d. If no
// lane holds d, an empty lane is rekeyed to it; if every lane holds another
// delay, the entry goes to the heap.
func (c *calendar) pushAfter(d, t Time, seq uint64, kind evKind, arg unsafe.Pointer) {
	var l *lane
	for i := 1; i < laneCount; i++ {
		if c.lanes[i].delay == d {
			l = &c.lanes[i]
			break
		}
		if l == nil && c.lanes[i].n == 0 {
			l = &c.lanes[i]
		}
	}
	if l == nil {
		c.push(t, seq, kind, arg)
		return
	}
	l.delay = d
	l.push(entry{t: t, seq: seq, slot: c.hold(arg), kind: kind})
}

// push appends e at the lane's tail, doubling the ring when it is full.
func (l *lane) push(e entry) {
	if int(l.n) == len(l.ring) {
		ring := make([]entry, 2*len(l.ring))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&uint32(len(l.ring)-1)] = e
	l.n++
}

// endOfTime is the pop limit that admits every entry.
const endOfTime = Time(math.MaxInt64)

// pop removes the earliest entry if its time is at most limit, and returns
// its time, kind and operand, freeing the operand's slot. ok is false, and
// nothing is removed, when the calendar is empty or its earliest entry lies
// past limit.
func (c *calendar) pop(limit Time) (t Time, kind evKind, arg unsafe.Pointer, ok bool) {
	var top *entry
	from := -1 // the heap
	if len(c.h) > 0 {
		top = &c.h[0]
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		if l.n == 0 {
			continue
		}
		if e := &l.ring[l.head]; top == nil || e.before(top) {
			top, from = e, i
		}
	}
	if top == nil || top.t > limit {
		return 0, 0, nil, false
	}
	e := *top
	if from < 0 {
		c.popHeap()
	} else {
		l := &c.lanes[from]
		l.head = (l.head + 1) & uint32(len(l.ring)-1)
		l.n--
	}
	arg = c.args[e.slot]
	c.args[e.slot] = nil
	c.free = append(c.free, e.slot)
	return e.t, e.kind, arg, true
}

// popHeap removes the heap's root. The heap must not be empty.
func (c *calendar) popHeap() {
	h := c.h
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
}

// reset empties the calendar, keeping its storage and releasing every
// operand it still held to the GC.
func (c *calendar) reset() {
	clear(c.args)
	c.h = c.h[:0]
	for i := range c.lanes {
		c.lanes[i].head, c.lanes[i].n = 0, 0
	}
	c.args = c.args[:0]
	c.free = c.free[:0]
}
