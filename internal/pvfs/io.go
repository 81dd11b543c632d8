package pvfs

import (
	"fmt"
	"sort"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// ackCost is the client-side cost of absorbing a server completion ack.
const ackCost = 2 * des.Microsecond

// opKind discriminates the service cost shape of a server request.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opSync
)

// serverRequest is one request bound for one server's FCFS queue. It
// steps itself through the pipeline — client send NIC, wire, lock units,
// server queue, wire, client recv NIC, gate — holding exactly one pending
// event at a time, so a single pre-bound callback (fire, the method value
// r.step) serves every stage and no stage allocates. Requests are pooled on
// the FileSystem: taken when an op is armed, returned after the last stage.
type serverRequest struct {
	server int
	kind   opKind
	segs   []Segment // pieces on this server (write/read)
	bytes  int64
	nsegs  int

	// Pipeline state, fixed at launch. A request keeps the op, file, port
	// and gate it was launched with, even if its op is re-armed meanwhile.
	op       *IssueOp
	f        *File
	port     *Port
	gate     *des.Gate
	srv      *server
	locks    []*des.Resource
	cost     des.Time
	submitAt des.Time
	doneAt   des.Time
	stage    reqStage
	fire     func()
}

// reqStage is the pipeline point a request's pending event leads to.
type reqStage uint8

const (
	reqSent   reqStage = iota // cleared the client send NIC
	reqArrive                 // crossed the wire to the server
	reqGrant                  // holds every lock unit it needs
	reqServed                 // the server finished it
	reqAcked                  // its ack crossed the wire back
	reqDone                   // its ack cleared the client recv NIC
)

// newRequest takes a request for server from the pool.
func (fs *FileSystem) newRequest(server int, kind opKind) *serverRequest {
	var r *serverRequest
	if n := len(fs.free); n > 0 {
		r = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		r = &serverRequest{}
		r.fire = r.step
	}
	r.server, r.kind = server, kind
	return r
}

// release returns a finished request to the pool, keeping its slices'
// storage and its bound callback.
func (fs *FileSystem) release(r *serverRequest) {
	*r = serverRequest{segs: r.segs[:0], locks: r.locks[:0], fire: r.fire}
	fs.free = append(fs.free, r)
}

// groupRequests appends to reqs one pooled request per server the pieces
// touch, in first-touch order, each holding its server's pieces in order.
func (fs *FileSystem) groupRequests(reqs []*serverRequest, pieces []serverPiece, kind opKind, contiguous bool) []*serverRequest {
	first := len(reqs)
	for _, pc := range pieces {
		r := fs.slot[pc.server]
		if r == nil {
			r = fs.newRequest(pc.server, kind)
			fs.slot[pc.server] = r
			reqs = append(reqs, r)
		}
		r.segs = append(r.segs, pc.seg)
		r.bytes += pc.seg.Length
		r.nsegs++
	}
	for _, r := range reqs[first:] {
		fs.slot[r.server] = nil
		if contiguous {
			// A contiguous client range maps to a regular strided pattern
			// the server handles as a single access: charge one segment.
			r.nsegs = 1
		}
	}
	return reqs
}

// IssueOp runs a set of server requests concurrently on behalf of a client
// process, as a resumable operation: per request the client pays
// PerServerIssue on its CPU (serially), the data crosses the client send NIC
// and the wire, queues at the server, is serviced, and an ack returns via
// the client recv NIC.
//
// Arm it with one of the Init* constructors, then call Step until it returns
// true: the client process re-enters Step after each park.
type IssueOp struct {
	f    *File
	p    *des.Proc
	port *Port
	reqs []*serverRequest

	issueStart des.Time
	waitStart  des.Time
	gate       *des.Gate
	launched   bool
	noop       bool

	// For causal recording, the request whose ack landed last: the client's
	// gate wait is decomposed along that request's pipeline.
	last struct {
		ok                      bool
		at, submit, start, done des.Time
	}

	readOff, readN int64     // read range (InitRead only)
	readSegs       []Segment // read segments (InitReadList only)
}

// init arms the op with pooled server requests: one per server for a sync,
// otherwise one per server the segments touch.
func (op *IssueOp) init(f *File, p *des.Proc, port *Port, kind opKind, segs []Segment, contiguous bool) {
	fs := f.fs
	reqs := op.reqs[:0]
	if kind == opSync {
		for i := range fs.servers {
			reqs = append(reqs, fs.newRequest(i, opSync))
		}
	} else {
		reqs = fs.groupRequests(reqs, f.splitByServer(segs), kind, contiguous)
	}
	op.f, op.p, op.port, op.reqs = f, p, port, reqs
	op.launched, op.noop = false, false
	op.last.ok = false
	op.readOff, op.readN = 0, 0
	op.readSegs = nil
	op.issueStart = f.fs.sim.Now()
	// The client marshals every request serially on its own CPU first.
	p.Sleep(fs.cfg.IssueOverhead + des.Time(len(reqs))*fs.cfg.PerServerIssue)
}

// Step drives the operation; it returns true once every server request has
// been serviced and acknowledged.
func (op *IssueOp) Step() bool {
	if op.noop {
		return true
	}
	f, p := op.f, op.p
	fs := f.fs
	sim := fs.sim
	if p.Yielded() {
		return false // still inside the marshaling sleep armed by init
	}
	if !op.launched {
		op.launched = true
		if c := fs.causal; c != nil {
			// Request marshaling is part of delivering I/O service.
			c.Busy(p, causal.CatIOService, op.issueStart, sim.Now())
		}
		op.launch()
		op.waitStart = sim.Now()
	}
	for op.gate.Pending() > 0 {
		op.gate.Park(p)
		if p.Yielded() {
			return false
		}
	}
	if c := fs.causal; c != nil && sim.Now() > op.waitStart {
		if op.last.ok {
			// The wait ended when the slowest request's ack cleared the
			// client NIC; bill its pipeline stages.
			c.WaitChain(p, op.waitStart, sim.Now(), []causal.Segment{
				{At: op.waitStart, Cat: causal.CatTransit},
				{At: op.last.submit, Cat: causal.CatIOQueue},
				{At: op.last.start, Cat: causal.CatIOService},
				{At: op.last.done, Cat: causal.CatTransit},
			})
		} else {
			c.WaitPlain(p, op.waitStart, sim.Now(), causal.CatTransit)
		}
	}
	return true
}

// launch pushes every server request into the network/storage pipeline and
// arms the completion gate. Runs once, after the marshaling sleep.
func (op *IssueOp) launch() {
	f, port := op.f, op.port
	fs := f.fs
	cfg := &fs.cfg
	op.gate = fs.sim.NewGate(len(op.reqs))
	for _, r := range op.reqs {
		srv := fs.servers[r.server]
		switch r.kind {
		case opWrite, opRead:
			r.cost = cfg.RequestOverhead + des.Time(r.nsegs)*cfg.SegmentOverhead +
				des.BytesOver(r.bytes, cfg.ServiceBandwidth)
		case opSync:
			d := srv.dirty
			srv.dirty = 0
			r.cost = cfg.SyncBase + des.BytesOver(d, cfg.SyncBandwidth)
			srv.syncs++
		}
		wireBytes := r.bytes
		if r.kind != opWrite {
			wireBytes = 256 // request descriptor only; data flows back for reads
		}
		r.op, r.f, r.port, r.gate, r.srv = op, f, port, op.gate, srv
		r.locks = f.lockUnits(r.locks, r)
		r.stage = reqSent
		port.Send.Submit(des.BytesOver(wireBytes, port.Bandwidth), r.fire)
	}
}

// step advances the request past the stage its pending event completes and
// schedules the next one. The last stage retires the request from its
// gate and returns it to the pool.
func (r *serverRequest) step() {
	fs := r.f.fs
	cfg := &fs.cfg
	sim := fs.sim
	switch r.stage {
	case reqSent:
		r.stage = reqArrive
		sim.After(cfg.NetLatency, r.fire)
	case reqArrive:
		r.submitAt = sim.Now()
		// Degradation windows scale service time at submission.
		if fs.faults != nil {
			if f := fs.faults.ServiceFactor(r.server); f != 1 {
				r.cost = des.Time(float64(r.cost) * f)
			}
		}
		r.stage = reqGrant
		serveLocked(sim, r.locks, r.srv.res, r.cost, cfg.LockAcquireCost, r.fire)
	case reqGrant:
		r.stage = reqServed
		r.doneAt = r.srv.res.Submit(r.cost, r.fire)
		if fs.traceOn {
			fs.trace = append(fs.trace, RequestRecord{
				Kind:     r.kindName(),
				Server:   r.server,
				Bytes:    r.bytes,
				Segments: r.nsegs,
				Submit:   r.submitAt,
				Start:    r.doneAt - r.cost,
				Done:     r.doneAt,
			})
		}
		fs.recordRequest(r.kind, r.bytes, r.doneAt-r.cost-r.submitAt, r.cost)
	case reqServed:
		srv, f := r.srv, r.f
		if r.kind == opWrite {
			srv.dirty += r.bytes
			srv.written += r.bytes
			for _, seg := range r.segs {
				src := seg.Src
				if fs.dropWrite != nil && fs.dropWrite(seg.Offset, seg.Length) {
					src = Zero // silent loss: extent recorded, payload zeroed
				}
				f.data.write(seg.Offset, seg.Length, src)
				if seg.Offset+seg.Length > f.size {
					f.size = seg.Offset + seg.Length
				}
			}
		}
		srv.requests++
		srv.segments += uint64(r.nsegs)
		r.stage = reqAcked
		sim.After(cfg.NetLatency, r.fire)
	case reqAcked:
		back := ackCost
		if r.kind == opRead {
			back += des.BytesOver(r.bytes, r.port.Bandwidth)
		}
		r.stage = reqDone
		r.port.Recv.Submit(back, r.fire)
	case reqDone:
		if fs.causal != nil {
			last := &r.op.last
			if now := sim.Now(); !last.ok || now >= last.at {
				last.ok, last.at = true, now
				last.submit, last.start, last.done = r.submitAt, r.doneAt-r.cost, r.doneAt
			}
		}
		r.gate.Done()
		fs.release(r)
	}
}

// InitWrite arms op as a contiguous write of n bytes at off holding stream
// content from src (Segment.Src). A non-positive n is a no-op.
func (op *IssueOp) InitWrite(p *des.Proc, f *File, port *Port, off, n, src int64) {
	if n <= 0 {
		op.noop = true
		return
	}
	op.InitWriteImage(p, f, port, []Segment{{Offset: off, Length: n, Src: src}})
}

// InitWriteImage arms op as a contiguous write of the range that img tiles
// (sorted, gap-free pieces whose Src may differ, such as a data-sieving
// window after its read-modify-write). It costs exactly what InitWrite of
// the whole range costs; only the stored content follows the pieces. An
// empty image is a no-op.
func (op *IssueOp) InitWriteImage(p *des.Proc, f *File, port *Port, img []Segment) {
	if len(img) == 0 {
		op.noop = true
		return
	}
	op.init(f, p, port, opWrite, img, true)
}

// InitWriteList arms op as a native noncontiguous list-I/O write: all
// segments in one operation, one batched request per touched server, issued
// in parallel. This is the PVFS2 list I/O interface of [Ching et al. 2002]
// that the WW-List strategy exercises. An empty segment list is a no-op.
func (op *IssueOp) InitWriteList(p *des.Proc, f *File, port *Port, segs []Segment) {
	if len(segs) == 0 {
		op.noop = true
		return
	}
	op.init(f, p, port, opWrite, segs, false)
}

// InitRead arms op as a contiguous read. A non-positive n is a no-op.
func (op *IssueOp) InitRead(p *des.Proc, f *File, port *Port, off, n int64) {
	if n <= 0 {
		op.noop, op.readN = true, 0
		return
	}
	op.init(f, p, port, opRead, []Segment{{Offset: off, Length: n}}, true)
	op.readOff, op.readN = off, n
}

// InitReadList arms op as a native noncontiguous list-I/O read: the mirror
// of InitWriteList, one batched request per touched server with the data
// bytes flowing back over the recv NIC. This is the read side of the PVFS2
// list I/O interface that "Noncontiguous I/O through PVFS" benchmarks. An
// empty segment list is a no-op.
func (op *IssueOp) InitReadList(p *des.Proc, f *File, port *Port, segs []Segment) {
	if len(segs) == 0 {
		op.noop, op.readSegs = true, nil
		return
	}
	op.init(f, p, port, opRead, segs, false)
	op.readSegs = segs
}

// InitSync arms op as a flush of every server's dirty data (MPI_File_sync's
// storage-side effect). Each server charges a base cost plus its dirty bytes
// over the flush bandwidth; concurrent syncs therefore mostly pay the base
// cost.
func (op *IssueOp) InitSync(p *des.Proc, f *File, port *Port) {
	op.init(f, p, port, opSync, nil, false)
}

// ReadPieces returns the descriptor pieces tiling the range of an
// InitRead-armed op (File.ReadBack: gaps are Zero pieces) when the file
// system captures content, nil otherwise. Valid only after Step has
// returned true.
func (op *IssueOp) ReadPieces() []Segment {
	if op.readN <= 0 || !op.f.fs.cfg.CaptureData {
		return nil
	}
	return op.f.data.read(op.readOff, op.readN, nil)
}

// ReadSegsPieces returns, per segment of an InitReadList-armed op, the
// descriptor pieces tiling it when the file system captures content, nil
// otherwise. Valid only after Step has returned true.
func (op *IssueOp) ReadSegsPieces() [][]Segment {
	if len(op.readSegs) == 0 || !op.f.fs.cfg.CaptureData {
		return nil
	}
	out := make([][]Segment, len(op.readSegs))
	for i, s := range op.readSegs {
		out[i] = op.f.data.read(s.Offset, s.Length, nil)
	}
	return out
}

// lockUnits appends to dst the lock resources a write request must
// serialize through, in ascending unit order (none when locking is disabled
// or the request is not a write).
func (f *File) lockUnits(dst []*des.Resource, r *serverRequest) []*des.Resource {
	gran := f.fs.cfg.LockGranularity
	if gran <= 0 || r.kind != opWrite {
		return dst
	}
	seen := map[int64]bool{}
	var units []int64
	for _, seg := range r.segs {
		for u := seg.Offset / gran; u <= (seg.Offset+seg.Length-1)/gran; u++ {
			if !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, u := range units {
		res, ok := f.locks[u]
		if !ok {
			res = f.fs.sim.NewResource(fmt.Sprintf("%s.lock%d", f.name, u), 1)
			f.locks[u] = res
		}
		dst = append(dst, res)
	}
	return dst
}

// serveLocked reserves every lock unit a write touches (atomically, within
// one simulation event, so lock acquisition cannot deadlock) and starts the
// service once the last unit is granted. Each unit is held for the
// request's estimated time-to-completion (current server backlog plus
// service cost) — an approximation of lock-based file systems'
// hold-until-write-completes. Uncontended locks are granted after the
// per-unit acquisition cost (a lock-manager round trip).
func serveLocked(sim *des.Simulation, locks []*des.Resource, srv *des.Resource, cost, acquire des.Time, then func()) {
	if len(locks) == 0 {
		then()
		return
	}
	hold := cost
	if backlog := srv.FreeAt() - sim.Now(); backlog > 0 {
		hold += backlog
	}
	grant := sim.Now()
	for _, l := range locks {
		if start := l.Submit(hold, nil) - hold; start > grant {
			grant = start
		}
	}
	grant += acquire * des.Time(len(locks))
	sim.At(grant, then)
}

// ServerStats is a per-server utilization snapshot.
type ServerStats struct {
	Requests     uint64
	Segments     uint64
	BytesWritten int64
	Syncs        uint64
	Busy         des.Time
	QueueWait    des.Time
}

// Stats summarizes all servers.
type Stats struct {
	Servers       []ServerStats
	TotalRequests uint64
	TotalSegments uint64
	TotalBytes    int64
	TotalSyncs    uint64
	TotalBusy     des.Time
}

// Stats returns a snapshot of per-server and aggregate counters.
func (fs *FileSystem) Stats() Stats {
	var out Stats
	for _, s := range fs.servers {
		rs := s.res.Stats()
		st := ServerStats{
			Requests:     s.requests,
			Segments:     s.segments,
			BytesWritten: s.written,
			Syncs:        s.syncs,
			Busy:         rs.BusyTime,
			QueueWait:    rs.QueueWait,
		}
		out.Servers = append(out.Servers, st)
		out.TotalRequests += st.Requests
		out.TotalSegments += st.Segments
		out.TotalBytes += st.BytesWritten
		out.TotalSyncs += st.Syncs
		out.TotalBusy += st.Busy
	}
	return out
}
