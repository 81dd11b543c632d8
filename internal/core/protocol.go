package core

import (
	"s3asim/internal/romio"
	"s3asim/internal/search"
)

// MPI tags of the S3aSim protocol. The collective-I/O layer uses tags above
// 1<<20; these stay well below. Tags 7–9 exist only in the resilient
// protocol (DESIGN.md §9); the original protocol never sends them.
const (
	tagWorkRequest = 2 // worker -> master: request for work
	tagWorkReply   = 3 // master -> worker: (query, fragment) or no-more-work
	tagScores      = 4 // worker -> master: scores (and results under MW)
	tagOffsets     = 5 // master -> worker: offset list for a completed batch
	tagSyncToken   = 6 // master -> worker: batch written (MW + query sync)
	tagWriteAck    = 7 // worker -> master: batch wave durably written
	tagControl     = 8 // master -> worker: nudge (work available) or shutdown
	tagFin         = 9 // worker -> master: final ack before orderly exit
)

// Small-message wire sizes (bytes).
const (
	configMsgBytes  = 64
	requestMsgBytes = 16
	replyMsgBytes   = 16
	offsetHdrBytes  = 16
	tokenMsgBytes   = 8
	ackMsgBytes     = 16
	ctlMsgBytes     = 8
	finMsgBytes     = 8
	offsetPerResult = 8 // one 64-bit offset per result (paper §2.2)
)

// droppableTag reports whether a tag belongs to the retry-protected
// request/response plane — the only messages the fault layer's Drop events
// may lose. Work requests and replies are covered by the worker's resend
// loop; scores by the master's task lease. Everything else (offset lists,
// tokens, acks, control, fin, collective exchanges) is modeled as reliable
// transport: offset/ack losses are instead expressed as crashed endpoints,
// which the write-lease machinery recovers.
func droppableTag(tag int) bool {
	return tag == tagWorkRequest || tag == tagWorkReply || tag == tagScores
}

// delayableTag bounds the fault layer's Delay events to the application's
// point-to-point plane (collective-exchange tags live above 1<<20 and keep
// their modeled timing).
func delayableTag(tag int) bool { return tag < 1<<20 }

// task identifies a (query, fragment) search unit. Gate is used only by
// serving runs (Config.Serve): the number of flush rounds the master had
// initiated when it dispatched the task, which is the WW-Coll run-ahead
// gate — the worker must have handled that many collective rounds before it
// may start computing. Closed-batch runs leave it zero and derive the gate
// from the query index instead (batches flush strictly in order there).
// Strat is the query's write strategy under adaptive I/O (Config.Adaptive):
// the controller stamps it when the first fragment is dispatched, and the
// worker routes its local merge, wire accounting, and WW-Coll gating on it.
// Fixed-strategy runs leave it zero and consult Config.Strategy instead.
type task struct {
	Q, F  int
	Gate  int
	Strat Strategy
}

// scoreMsg is a worker's report for one completed task.
type scoreMsg struct {
	Task        task
	Count       int   // results produced
	ResultBytes int64 // total result payload bytes
}

// offsetMsg carries a worker's write placements for one flushed batch.
// Empty placements still require an (empty) message so every worker can
// track batch progress — and, under WW-Coll, join the collective round.
// Sync marks the addressee as a member of this batch's barrier epoch (every
// worker under QuerySync in the original protocol). Wave, Inc and Fallback
// are resilient-protocol fields (zero in the original protocol): Wave 0 is
// the initial flush, higher waves re-send recovered placements; Inc pins the
// message to the addressee's incarnation (a restarted worker ignores waves
// addressed to its dead predecessor); Fallback forces individual list I/O
// instead of the collective round.
// Strat and Hints are adaptive-I/O fields (Config.Adaptive): the batch's
// decided write strategy and the ROMIO hint vector to write it with — under
// adaptive I/O every batch sends offset lists, including MW batches, whose
// empty message (sent after the master's own write+sync) is the batch
// tracker and, with QuerySync, the barrier trigger. Zero otherwise.
type offsetMsg struct {
	Batch      int
	Placements []search.Result
	Wave       int
	Inc        int
	Fallback   bool
	Sync       bool
	Strat      Strategy
	Hints      romio.Hints
}

// workReqMsg is the resilient work request: Seq increments per new request
// (resends repeat it), Inc is the worker's incarnation so the master can
// detect a restart whose death it never observed.
type workReqMsg struct {
	Seq int
	Inc int
}

// workReplyMsg is the resilient work reply. Flushed tells the worker how
// many initial batch waves were sent before it joined — the base for the
// WW-Coll run-ahead gate after a restart.
type workReplyMsg struct {
	Seq     int
	Has     bool // false: no work right now, wait for a nudge
	T       task
	Flushed int
}

// tokMsg is the MW sync token: batch Batch is written. Inc and Sync address
// it as offsetMsg's fields do (the original protocol sends Sync to every
// worker at incarnation 0).
type tokMsg struct {
	Batch int
	Inc   int
	Sync  bool
}

// ackMsg acknowledges that one (batch, wave) offset list was durably
// written by the sending worker.
type ackMsg struct {
	Batch int
	Wave  int
	Bytes int64
}

// ctlMsg is the master's control plane: a nudge (requeued work is
// available) or an orderly-shutdown order.
type ctlMsg struct {
	Shutdown bool
}
