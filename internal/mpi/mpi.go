// Package mpi implements a simulated Message Passing Interface over the
// discrete-event kernel in internal/des: a world of ranks mapped onto nodes,
// standard and nonblocking point-to-point operations with tag/source
// matching (including wildcards), requests with Test/Wait semantics, and
// reusable barriers.
//
// The network model is deliberately simple but captures the contention
// effects the paper depends on: every node has one send-side and one
// receive-side NIC modeled as FCFS des.Resources, so a process that funnels
// traffic from many peers (the S3aSim master under the master-writing
// strategy) serializes those transfers on its receive NIC. A message costs
//
//	perMessageCPU + bytes/bandwidth   on the sender NIC,
//	wire latency                      in flight, and
//	perMessageCPU + bytes/bandwidth   on the receiver NIC.
//
// Messages at or below the eager limit complete their send request once the
// sender NIC is done (buffered send); larger messages complete on delivery
// (rendezvous-like back-pressure).
package mpi

import (
	"fmt"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// Wildcards for Recv/Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// NetConfig describes the simulated interconnect.
type NetConfig struct {
	Latency       des.Time // wire latency per message
	Bandwidth     float64  // bytes/second per NIC direction
	PerMessageCPU des.Time // software/NIC overhead per message per side
	EagerLimit    int64    // bytes; larger sends complete only on delivery
	ProcsPerNode  int      // ranks sharing a node's NICs (≥1)
}

// Myrinet2000 returns a Myrinet-2000-class network: ~2 Gb/s links, ~12 µs
// latency, dual-processor nodes as on the paper's Feynman cluster.
func Myrinet2000() NetConfig {
	return NetConfig{
		Latency:       12 * des.Microsecond,
		Bandwidth:     225e6,
		PerMessageCPU: 2 * des.Microsecond,
		EagerLimit:    64 * 1024,
		ProcsPerNode:  2,
	}
}

// Message is a delivered (or in-flight) point-to-point message. Payload
// carries real Go data between ranks; Bytes is the simulated wire size.
type Message struct {
	Source  int
	Dest    int
	Tag     int
	Bytes   int64
	Payload any

	// Causal stamps, populated only when a recorder is installed: who pushed
	// the message into the network, when, and a world-unique flow id. They
	// let a blocked receiver resolve its wait to the sending process.
	sentBy string
	sentAt des.Time
	id     uint64
}

// node is one physical machine: a pair of directional NIC resources shared
// by ProcsPerNode ranks.
type node struct {
	send *des.Resource
	recv *des.Resource
}

// FaultModel decides the fate of each message as it is sent: lost entirely
// (drop) and/or delivered with extra wire latency. Implementations must be
// deterministic given the DES-serialized call order (fault.Injector is).
type FaultModel interface {
	MessageFate(src, dst, tag int, bytes int64) (drop bool, extra des.Time)
}

// World is a communicator spanning n ranks.
type World struct {
	sim    *des.Simulation
	cfg    NetConfig
	nodes  []*node
	ranks  []*Rank
	fate   FaultModel
	causal *causal.Recorder

	bytesSent  uint64
	msgsSent   uint64
	msgsToDead uint64

	free []*transfer // idle transfers (see newTransfer)
}

// NewWorld creates a world of n ranks over ceil(n/ProcsPerNode) nodes.
func NewWorld(sim *des.Simulation, n int, cfg NetConfig) *World {
	if n < 1 {
		protoPanic("NewWorld", -1, "world needs at least one rank")
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	w := &World{sim: sim, cfg: cfg}
	numNodes := (n + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	for i := 0; i < numNodes; i++ {
		w.nodes = append(w.nodes, &node{
			send: sim.NewResource(fmt.Sprintf("node%d.sendNIC", i), 1),
			recv: sim.NewResource(fmt.Sprintf("node%d.recvNIC", i), 1),
		})
	}
	for i := 0; i < n; i++ {
		r := &Rank{
			w:        w,
			rank:     i,
			node:     w.nodes[i/cfg.ProcsPerNode],
			activity: sim.NewSignal(),
		}
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Sim returns the underlying simulation.
func (w *World) Sim() *des.Simulation { return w.sim }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Config returns the network configuration.
func (w *World) Config() NetConfig { return w.cfg }

// BytesSent reports total payload bytes pushed into the network so far.
func (w *World) BytesSent() uint64 { return w.bytesSent }

// MessagesSent reports total messages pushed into the network so far.
func (w *World) MessagesSent() uint64 { return w.msgsSent }

// NodeNIC returns the send/recv NIC resources for the node hosting rank i,
// for utilization reporting and tests.
func (w *World) NodeNIC(i int) (send, recv *des.Resource) {
	nd := w.nodes[i/w.cfg.ProcsPerNode]
	return nd.send, nd.recv
}

// UncontendNode replaces the NICs of the node hosting rank i with
// high-capacity resources, removing interface serialization at that node.
// This is an ablation hook (e.g. isolating receive-side contention at the
// S3aSim master); call it before any traffic flows and before storage ports
// are derived from the node's NICs.
func (w *World) UncontendNode(i, capacity int) {
	nd := w.nodes[i/w.cfg.ProcsPerNode]
	nd.send = w.sim.NewResource(fmt.Sprintf("node%d.sendNIC+", i), capacity)
	nd.recv = w.sim.NewResource(fmt.Sprintf("node%d.recvNIC+", i), capacity)
}

// Spawn starts rank i's program in a new simulated process. Starting a rank
// twice is a contract violation (*ProtocolError); see Respawn for reviving
// a killed rank.
func (w *World) Spawn(i int, name string, body func(r *Rank)) *des.Proc {
	r := w.ranks[i]
	if r.proc != nil {
		protoPanic("Spawn", i, "rank already spawned")
	}
	r.proc = w.sim.Spawn(name, func(p *des.Proc) {
		body(r)
	})
	return r.proc
}

// SetFaultModel installs the message-fate hook consulted once per Isend.
// Install it before any traffic flows; a nil model (the default) delivers
// everything unchanged.
func (w *World) SetFaultModel(fm FaultModel) { w.fate = fm }

// SetCausal installs a happens-before recorder. The recorder is purely
// passive — it consumes no virtual time and posts no events — so a run with
// one installed is event-for-event identical to a run without. Install it
// before any traffic flows; nil (the default) disables recording.
func (w *World) SetCausal(c *causal.Recorder) { w.causal = c }

// Causal returns the installed recorder, or nil. Layers built on top of the
// world (ROMIO collectives) use it to bill their own work intervals.
func (w *World) Causal() *causal.Recorder { return w.causal }

// MessagesToDead reports how many messages were discarded at dead ranks.
func (w *World) MessagesToDead() uint64 { return w.msgsToDead }

// Kill marks rank i dead: its inbox is discarded, its posted-but-unmatched
// receives are cancelled, and subsequent deliveries to it are dropped
// (counted in MessagesToDead). It must be called by the dying rank's own
// process just before it unwinds — the engine's checkpoint protocol
// guarantees the rank is not parked inside a barrier or collective when it
// dies, so no other process is left waiting on state Kill tears down.
func (w *World) Kill(i int) {
	r := w.ranks[i]
	if r.dead {
		return
	}
	r.dead = true
	r.inbox = nil
	posted := r.posted
	r.posted = nil
	for _, pr := range posted {
		pr.req.cancelled = true
		pr.req.complete(nil)
	}
}

// WakeRank broadcasts rank i's activity signal from kernel context, forcing
// a rank blocked in WaitEvent/Wait loops to re-check its predicates — the
// fault injector uses it so an idle-parked worker observes its crash at the
// scheduled instant rather than at its next message.
func (w *World) WakeRank(i int) {
	w.ranks[i].activity.Broadcast()
}

// Respawn revives a killed rank with a fresh process running body — the
// fault plan's "worker restart after d". The previous incarnation must have
// been killed and finished unwinding; anything else is a contract violation
// (*ProtocolError). The revived rank starts with an empty inbox, no posted
// receives, and an incremented Incarnation.
func (w *World) Respawn(i int, name string, body func(r *Rank)) *des.Proc {
	r := w.ranks[i]
	if r.proc == nil {
		protoPanic("Respawn", i, "rank was never spawned")
	}
	if !r.dead {
		protoPanic("Respawn", i, "rank is still alive")
	}
	if !r.proc.Done() {
		protoPanic("Respawn", i, "previous incarnation still unwinding")
	}
	r.dead = false
	r.inbox = nil
	r.posted = nil
	r.incarnation++
	r.proc = w.sim.Spawn(name, func(p *des.Proc) {
		body(r)
	})
	return r.proc
}
