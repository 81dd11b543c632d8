package mpi

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// Rank is one MPI process. All of its operations must be invoked from
// inside the des.Proc that Spawn started for it.
type Rank struct {
	w    *World
	rank int
	node *node
	proc *des.Proc

	inbox    []*Message    // arrived, not yet matched
	posted   []*postedRecv // posted receives, not yet matched
	activity *des.Signal   // broadcast whenever a request completes

	dead        bool // killed by fault injection; deliveries are discarded
	incarnation int  // respawn count (0 for the original process)

	msgsSent  uint64 // messages this rank pushed into the network
	bytesSent uint64 // payload bytes this rank pushed into the network

	// Last message to arrive at this rank (causal recording only): lets a
	// generic WaitEvent wake distinguish "a message arrived just now" (a
	// transit edge to its sender) from an out-of-band or timeout wake.
	lastMsg   *Message
	lastMsgAt des.Time
}

type postedRecv struct {
	source, tag int
	req         *Request
}

func (pr *postedRecv) matches(m *Message) bool {
	return (pr.source == AnySource || pr.source == m.Source) &&
		(pr.tag == AnyTag || pr.tag == m.Tag)
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// World returns the communicator.
func (r *Rank) World() *World { return r.w }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *des.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() des.Time { return r.w.sim.Now() }

// Compute advances this rank's virtual clock by d, modeling local work.
func (r *Rank) Compute(d des.Time) {
	if c := r.w.causal; c != nil {
		start := r.Now()
		r.proc.Sleep(d)
		c.Busy(r.proc.Name(), causal.CatCompute, start, r.Now())
		return
	}
	r.proc.Sleep(d)
}

// Alive reports whether the rank is running (not killed by fault
// injection). A fresh rank is alive; Kill clears it, Respawn restores it.
func (r *Rank) Alive() bool { return !r.dead }

// Incarnation reports how many times this rank has been respawned (0 for
// the original process). The engine's recovery protocol uses it to detect a
// restarted worker whose death was never observed.
func (r *Rank) Incarnation() int { return r.incarnation }

// MessagesSent reports how many messages this rank has sent.
func (r *Rank) MessagesSent() uint64 { return r.msgsSent }

// BytesSent reports how many payload bytes this rank has sent.
func (r *Rank) BytesSent() uint64 { return r.bytesSent }

// Request tracks the completion of a nonblocking operation. A receive
// request additionally carries the matched message once complete.
type Request struct {
	owner     *Rank
	done      bool
	msg       *Message // non-nil for completed receives
	cancelled bool     // receive cancelled before matching
	dropped   bool     // send whose message the network lost (fault injection)
}

// Done reports whether the operation has completed (MPI_Test without
// side effects; our Test is free of progress obligations because the DES
// kernel advances the network independently).
func (q *Request) Done() bool { return q.done }

// Message returns the received message, or nil if not a completed receive.
func (q *Request) Message() *Message { return q.msg }

// Cancelled reports whether the request was retired by Cancel (teardown)
// rather than by matching a message.
func (q *Request) Cancelled() bool { return q.cancelled }

// Dropped reports whether a send's message was lost by fault injection (or
// discarded at a dead destination). The request still completes — a lost
// message must not wedge the sender — but the loss is observable here
// instead of masquerading as success.
func (q *Request) Dropped() bool { return q.dropped }

func (q *Request) complete(m *Message) {
	q.done = true
	q.msg = m
	q.owner.activity.Broadcast()
}

// Isend starts a nonblocking send of a message with the given simulated
// size and real payload. The returned request completes when the sender-side
// NIC finishes (bytes ≤ eager limit) or when the message is delivered to the
// destination rank's matching engine (larger messages).
//
// Sending to a rank outside the world is a contract violation and panics
// with *ProtocolError. Sending to a dead (killed) rank is legal — failure
// detectors need exactly that — but the message is discarded on arrival and
// the request reports Dropped.
func (r *Rank) Isend(dest, tag int, bytes int64, payload any) *Request {
	if dest < 0 || dest >= len(r.w.ranks) {
		protoPanic("Isend", dest, "destination outside world")
	}
	w := r.w
	cfg := &w.cfg
	m := &Message{Source: r.rank, Dest: dest, Tag: tag, Bytes: bytes, Payload: payload}
	req := &Request{owner: r}
	w.msgsSent++
	w.bytesSent += uint64(bytes)
	r.msgsSent++
	r.bytesSent += uint64(bytes)
	if w.causal != nil {
		m.sentBy = r.proc.Name()
		m.sentAt = w.sim.Now()
		m.id = w.msgsSent
	}

	t := w.newTransfer()
	t.w, t.dst, t.m, t.req = w, w.ranks[dest], m, req
	t.eager = bytes <= cfg.EagerLimit
	if w.fate != nil {
		t.lost, t.extra = w.fate.MessageFate(r.rank, dest, tag, bytes)
	}
	t.stage = xferSent
	r.node.send.Submit(cfg.PerMessageCPU+des.BytesOver(bytes, cfg.Bandwidth), t.fire)
	return req
}

// transfer is one in-flight message stepping through the network: sender
// NIC, wire latency plus fault delay, receiver NIC, delivery. It holds
// exactly one pending event at a time, so a single pre-bound callback (fire,
// the method value t.step) serves every stage and no stage allocates.
// Transfers are pooled on the World and return there after their last
// stage; the Message and Request they carry belong to the callers.
type transfer struct {
	w     *World
	dst   *Rank
	m     *Message
	req   *Request
	eager bool
	lost  bool
	extra des.Time
	stage xferStage
	fire  func()
}

// xferStage is the network point a transfer's pending event leads to.
type xferStage uint8

const (
	xferSent      xferStage = iota // cleared the sender NIC
	xferArrived                    // crossed the wire
	xferDelivered                  // cleared the receiver NIC
)

// newTransfer takes a transfer from the world's pool.
func (w *World) newTransfer() *transfer {
	if n := len(w.free); n > 0 {
		t := w.free[n-1]
		w.free = w.free[:n-1]
		return t
	}
	t := &transfer{}
	t.fire = t.step
	return t
}

// step advances the transfer past the stage its pending event completes.
func (t *transfer) step() {
	w := t.w
	cfg := &w.cfg
	req := t.req
	switch t.stage {
	case xferSent:
		if t.eager {
			req.complete(nil) // send requests carry no message
		}
		t.stage = xferArrived
		w.sim.After(cfg.Latency+t.extra, t.fire)
	case xferArrived:
		// A message lost on the wire never reaches the receiver NIC; a
		// rendezvous send still completes (the transport gave up), with
		// the loss surfaced via Dropped.
		if t.lost {
			req.dropped = true
			if !t.eager {
				req.complete(nil)
			}
			w.release(t)
			return
		}
		t.stage = xferDelivered
		t.dst.node.recv.Submit(cfg.PerMessageCPU+des.BytesOver(t.m.Bytes, cfg.Bandwidth), t.fire)
	case xferDelivered:
		dst, m := t.dst, t.m
		if dst.dead {
			req.dropped = true
			w.msgsToDead++
		} else {
			if c := w.causal; c != nil && c.CapturesFlows() && dst.proc != nil {
				c.Flow(m.id, fmt.Sprintf("msg.%d", m.Tag), m.sentBy,
					dst.proc.Name(), m.sentAt, w.sim.Now())
			}
			dst.deliver(m)
		}
		if !t.eager {
			req.complete(nil)
		}
		w.release(t)
	}
}

// release returns a finished transfer to the pool, keeping its bound
// callback.
func (w *World) release(t *transfer) {
	*t = transfer{fire: t.fire}
	w.free = append(w.free, t)
}

// Send is a blocking standard-mode send: Isend followed by Wait.
func (r *Rank) Send(dest, tag int, bytes int64, payload any) {
	r.Wait(r.Isend(dest, tag, bytes, payload))
}

// deliver runs in kernel context when a message clears the receiver NIC:
// match the oldest satisfiable posted receive, else queue in arrival order.
func (r *Rank) deliver(m *Message) {
	if r.w.causal != nil {
		r.lastMsg, r.lastMsgAt = m, r.w.sim.Now()
	}
	for i, pr := range r.posted {
		if pr.matches(m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			pr.req.complete(m)
			return
		}
	}
	r.inbox = append(r.inbox, m)
}

// Irecv posts a nonblocking receive for (source, tag); AnySource/AnyTag
// wildcards apply. If a queued message already matches, the request
// completes immediately (consuming the oldest match).
func (r *Rank) Irecv(source, tag int) *Request {
	req := &Request{owner: r}
	for i, m := range r.inbox {
		if (source == AnySource || source == m.Source) && (tag == AnyTag || tag == m.Tag) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			req.complete(m)
			return req
		}
	}
	r.posted = append(r.posted, &postedRecv{source: source, tag: tag, req: req})
	return req
}

// Recv is a blocking receive: Irecv followed by Wait.
func (r *Rank) Recv(source, tag int) *Message {
	return r.Wait(r.Irecv(source, tag))
}

// Wait blocks this rank until the request completes, returning the matched
// message for receives (nil for sends). Corresponds to MPI_Wait.
func (r *Rank) Wait(q *Request) *Message {
	start := r.Now()
	for !q.done {
		r.activity.Wait(r.proc)
	}
	if c := r.w.causal; c != nil {
		r.recordWait(c, start, q)
	}
	return q.msg
}

// recordWait classifies a completed blocking wait: a received message makes
// a transit edge back to its sender; a cancelled request is recovery
// teardown; anything else (waiting out one's own send) is plain transit.
func (r *Rank) recordWait(c *causal.Recorder, start des.Time, q *Request) {
	end := r.Now()
	if end <= start {
		return
	}
	name := r.proc.Name()
	switch {
	case q.msg != nil && q.msg.sentBy != "":
		c.WaitEdge(name, start, end, causal.CatTransit, q.msg.sentBy, q.msg.sentAt)
	case q.cancelled:
		c.WaitPlain(name, start, end, causal.CatRecovery)
	default:
		c.WaitPlain(name, start, end, causal.CatTransit)
	}
}

// WaitAll blocks until every request has completed.
func (r *Rank) WaitAll(qs ...*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}

// WaitAny blocks until at least one of the requests has completed and
// returns the index of the first completed one. Waiting on an empty set can
// never complete; it is a contract violation and panics with
// *ProtocolError.
func (r *Rank) WaitAny(qs []*Request) int {
	if len(qs) == 0 {
		protoPanic("WaitAny", r.rank, "empty request set")
	}
	start := r.Now()
	for {
		for i, q := range qs {
			if q.done {
				if c := r.w.causal; c != nil {
					r.recordWait(c, start, q)
				}
				return i
			}
		}
		r.activity.Wait(r.proc)
	}
}

// WaitAnyUntil is WaitAny with an absolute virtual-time deadline: it
// returns (index, true) when a request completes first, or (-1, false) if
// the deadline passes with none complete. Nil entries are skipped, so
// callers can keep fixed slots. An all-nil or empty set simply waits out
// the deadline (the engine's resilient master uses that as its detector
// sweep timer).
func (r *Rank) WaitAnyUntil(qs []*Request, deadline des.Time) (int, bool) {
	c := r.w.causal
	start := r.Now()
	timeout := func() (int, bool) {
		if c != nil && r.Now() > start {
			// Timed-out waits are the resilient protocol's detection arm.
			c.WaitPlain(r.proc.Name(), start, r.Now(), causal.CatRecovery)
		}
		return -1, false
	}
	for {
		for i, q := range qs {
			if q != nil && q.done {
				if c != nil {
					r.recordWait(c, start, q)
				}
				return i, true
			}
		}
		if r.Now() >= deadline {
			return timeout()
		}
		if !r.activity.WaitUntil(r.proc, deadline) {
			return timeout()
		}
	}
}

// WaitEvent parks the rank until any of its requests completes (or the
// rank is woken out-of-band via World.WakeRank). Callers re-check their
// predicates in a loop, like Signal.Wait.
func (r *Rank) WaitEvent() {
	c := r.w.causal
	if c == nil {
		r.activity.Wait(r.proc)
		return
	}
	start := r.Now()
	r.activity.Wait(r.proc)
	r.recordEventWake(c, start)
}

// WaitEventUntil is WaitEvent with an absolute deadline; it reports false
// on timeout.
func (r *Rank) WaitEventUntil(deadline des.Time) bool {
	c := r.w.causal
	if c == nil {
		return r.activity.WaitUntil(r.proc, deadline)
	}
	start := r.Now()
	ok := r.activity.WaitUntil(r.proc, deadline)
	if ok {
		r.recordEventWake(c, start)
	} else if end := r.Now(); end > start {
		c.WaitPlain(r.proc.Name(), start, end, causal.CatRecovery)
	}
	return ok
}

// recordEventWake classifies a generic event-wait wake: if a message arrived
// at this very instant, credit a transit edge to its sender; otherwise the
// park belongs to the resilient protocol's idle/recovery machinery (the only
// user of WaitEvent).
func (r *Rank) recordEventWake(c *causal.Recorder, start des.Time) {
	end := r.Now()
	if end <= start {
		return
	}
	name := r.proc.Name()
	if r.lastMsg != nil && r.lastMsgAt == end && r.lastMsg.sentBy != "" {
		c.WaitEdge(name, start, end, causal.CatTransit, r.lastMsg.sentBy, r.lastMsg.sentAt)
		return
	}
	c.WaitPlain(name, start, end, causal.CatRecovery)
}

// Cancel retires a posted receive that has not matched yet: the request
// completes with Cancelled() true and a nil message, and its posted entry
// is withdrawn so it can never match. Cancelling a completed (or already
// cancelled) request is a no-op returning false. This is the teardown path
// a dying rank uses for its posted-but-unmatched receives.
func (r *Rank) Cancel(q *Request) bool {
	if q.done {
		return false
	}
	for i, pr := range r.posted {
		if pr.req == q {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			break
		}
	}
	q.cancelled = true
	q.complete(nil)
	return true
}

// Test reports whether the request has completed (MPI_Test).
func (r *Rank) Test(q *Request) bool { return q.done }

// TestSome appends completed requests' indices to idx and returns it.
func (r *Rank) TestSome(qs []*Request, idx []int) []int {
	for i, q := range qs {
		if q.done {
			idx = append(idx, i)
		}
	}
	return idx
}

// Probe reports whether a message matching (source, tag) has arrived but
// not been received (MPI_Iprobe).
func (r *Rank) Probe(source, tag int) bool {
	for _, m := range r.inbox {
		if (source == AnySource || source == m.Source) && (tag == AnyTag || tag == m.Tag) {
			return true
		}
	}
	return false
}
