package pvfs

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"s3asim/internal/causal"
	"s3asim/internal/des"
)

// This file pins the server-request pipeline (send NIC → wire → locks →
// server queue → wire → recv NIC → gate) at request granularity, on the
// paths no engine workload reaches: lock-unit serialization, degraded
// service, an outage, dropped write payloads, causal wait chains, and an op
// re-armed while the requests of its previous arming are still in flight.
// The hash and event count were captured before the pipeline became pooled
// staged requests, so they hold that rewrite to the old schedule.

// slowServers is a ServerFaults that degrades server 2 always and server 0
// inside a time window, so the factor is read at the right instant.
type slowServers struct{ sim *des.Simulation }

func (s slowServers) ServiceFactor(server int) float64 {
	switch now := s.sim.Now(); {
	case server == 2:
		return 1.5
	case server == 0 && now >= 2*des.Millisecond && now < 6*des.Millisecond:
		return 3
	}
	return 1
}

// rearmMachine is an FSM client that arms a list write on its op, launches
// it, and then only waits for that launch's gate: meanwhile another process
// re-arms the same op (the shape of a client that abandons an op with
// requests still in flight).
type rearmMachine struct {
	op   *IssueOp
	f    *File
	port *Port
	pc   int
	done func(p *des.Proc)
	gate *des.Gate
}

func (m *rearmMachine) Step(p *des.Proc) {
	switch m.pc {
	case 0:
		m.op.InitWriteList(p, m.f, m.port, []Segment{
			seg(0, 180, 0), seg(400, 150, 400), seg(820, 60, 820),
		})
		m.pc = 1
		return // parked in the marshaling sleep
	case 1:
		if !m.op.Step() {
			m.gate, m.pc = m.op.gate, 2
			return // parked on the launch's gate
		}
	case 2:
		if m.gate.Pending() > 0 {
			m.gate.Park(p)
			return
		}
	}
	m.done(p)
}

// requestGoldenRun runs the mixed program and returns its fingerprint and
// calendar-event count.
func requestGoldenRun(t *testing.T) (string, uint64) {
	t.Helper()
	sim := des.New()
	cfg := testConfig()
	cfg.IssueOverhead = 50 * des.Microsecond
	cfg.PerServerIssue = 10 * des.Microsecond
	cfg.NetLatency = 5 * des.Microsecond
	cfg.LockGranularity = 150
	cfg.LockAcquireCost = 20 * des.Microsecond
	fs := New(sim, cfg)
	fs.EnableRequestTrace()
	fs.SetFaults(slowServers{sim})
	fs.ScheduleOutage(1, 3*des.Millisecond, 4*des.Millisecond)
	fs.SetWriteDropper(func(off, n int64) bool { return off >= 700 && off < 800 })
	rec := causal.NewRecorder()
	fs.SetCausal(rec)

	port := func(name string) *Port {
		return &Port{
			Send:      sim.NewResource(name+".send", 1),
			Recv:      sim.NewResource(name+".recv", 1),
			Bandwidth: 2e6,
		}
	}
	shared, own, hijack := port("shared"), port("own"), port("hijack")

	var b strings.Builder
	doneAt := map[string][]des.Time{}
	mark := func(p *des.Proc) { doneAt[p.Name()] = append(doneAt[p.Name()], p.Now()) }
	pieces := func(tag string, segs []Segment) { fmt.Fprintf(&b, "%s %v\n", tag, segs) }

	// w2's op is re-armed by w3 on another file and port while w2's
	// launch is still in flight.
	var fa, fb *File
	var rearmed IssueOp
	sim.Spawn("setup", func(p *des.Proc) {
		fa = fs.Create(p, "a")
		fb = fs.Create(p, "b")
		sim.SpawnFSM("w2", &rearmMachine{op: &rearmed, f: fb, port: own, done: mark})
	})
	start := 2 * fs.cfg.MetaOverhead

	// w0 reuses one op for every kind of operation.
	sim.Spawn("w0", func(p *des.Proc) {
		p.Sleep(start)
		var op IssueOp
		op.InitWrite(p, fa, shared, 50, 420, 50)
		op.Step()
		mark(p)
		op.InitWriteList(p, fa, shared, []Segment{seg(600, 40, 600), seg(700, 30, 700), seg(905, 90, 1905)})
		op.Step()
		mark(p)
		op.InitSync(p, fa, shared)
		op.Step()
		mark(p)
		op.InitRead(p, fa, shared, 0, 1000)
		op.Step()
		mark(p)
		pieces("w0.read", op.ReadPieces())
		op.InitReadList(p, fa, shared, []Segment{seg(90, 40, 0), seg(610, 200, 0)})
		op.Step()
		mark(p)
		for i, s := range op.ReadSegsPieces() {
			pieces(fmt.Sprintf("w0.readlist%d", i), s)
		}
	})

	// w1 uses the blocking File methods on the same NICs as w0, with
	// writes overlapping w0's.
	sim.Spawn("w1", func(p *des.Proc) {
		p.Sleep(start + 30*des.Microsecond)
		fa.WriteList(p, shared, []Segment{seg(140, 20, 9140), seg(300, 120, 300), seg(760, 20, 760)})
		mark(p)
		fa.Write(p, shared, 1000, 250, 1000)
		mark(p)
		fa.Sync(p, shared)
		mark(p)
		pieces("w1.read", fa.Read(p, shared, 250, 600))
		mark(p)
	})

	sim.Spawn("w3", func(p *des.Proc) {
		p.Sleep(start + 300*des.Microsecond)
		rearmed.InitWriteList(p, fa, hijack, []Segment{seg(1300, 60, 1300), seg(1500, 90, 1500)})
		rearmed.Step()
		mark(p)
		rearmed.InitWrite(p, fa, hijack, 1400, 50, 1400)
		rearmed.Step()
		mark(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	for _, r := range fs.RequestTrace() {
		fmt.Fprintf(&b, "req %+v\n", r)
	}
	fmt.Fprintf(&b, "stats %+v\n", fs.Stats())
	names := make([]string, 0, len(doneAt))
	for n := range doneAt {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "done %s %v\n", n, doneAt[n])
	}
	for _, f := range []*File{fa, fb} {
		fmt.Fprintf(&b, "file %s size=%d coverage=%d overlapped=%d\n",
			f.Name(), f.Size(), f.Coverage(), f.OverlappedBytes())
		pieces("readback "+f.Name(), f.ReadBack(0, f.Size()))
	}
	for _, port := range []*Port{shared, own, hijack} {
		fmt.Fprintf(&b, "nic %+v %+v\n", port.Send.Stats(), port.Recv.Stats())
	}
	fmt.Fprintf(&b, "causal %v intervals=%d\n", rec.Totals(), rec.Intervals())
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), sim.Events()
}

// TestRequestPipelineGolden pins the outcome of a mixed, concurrent
// program on one file system: the request trace, server stats, per-process
// completion times, coverage and overlap, the whole-file readback of both
// files, the client NICs' use, and the causal wait decomposition.
func TestRequestPipelineGolden(t *testing.T) {
	const (
		wantHash   = "23ede216da88135741be0fc782ae4531212eccb67eb7f09a640dc84e25beb113"
		wantEvents = 243
	)
	got, events := requestGoldenRun(t)
	if got != wantHash || events != wantEvents {
		t.Errorf("request pipeline drifted:\n got %s events=%d\nwant %s events=%d", got, events, wantHash, wantEvents)
	}
}
