package pvfs

import (
	"math"
	"testing"

	"s3asim/internal/des"
)

// reuseMachine is an FSM client that runs one list write per kick on a
// single reused IssueOp, the way the engine's worker drives its op.
type reuseMachine struct {
	op   IssueOp
	f    *File
	port *Port
	segs []Segment
	kick *des.Signal
	pc   int
}

func (m *reuseMachine) Step(p *des.Proc) {
	for {
		switch m.pc {
		case 0: // idle until kicked
			m.kick.Wait(p)
			m.pc = 1
			return
		case 1:
			m.op.InitWriteList(p, m.f, m.port, m.segs)
			m.pc = 2
			if p.Yielded() {
				return
			}
		case 2:
			if !m.op.Step() {
				return
			}
			m.pc = 0
		}
	}
}

// listWriteAllocs reports the steady-state allocations of one list write of
// 16 segments spread over the given number of servers.
func listWriteAllocs(t *testing.T, servers int) float64 {
	t.Helper()
	sim := des.New()
	fs := New(sim, FeynmanLike())
	var f *File
	sim.Spawn("setup", func(p *des.Proc) { f = fs.Create(p, "out") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	strip, n := fs.cfg.StripSize, int64(fs.cfg.NumServers)
	m := &reuseMachine{
		f:    f,
		port: &Port{Send: sim.NewResource("s", 1), Recv: sim.NewResource("r", 1), Bandwidth: 225e6},
		kick: sim.NewSignal(),
	}
	for i := int64(0); i < 16; i++ {
		// Strip i%servers of stripe i/servers: the first `servers` servers.
		off := (i/int64(servers)*n + i%int64(servers)) * strip
		m.segs = append(m.segs, Segment{Offset: off, Length: 4096, Src: off})
	}
	sim.SpawnFSM("client", m)
	sim.RunUntil(math.MaxInt64)
	write := func() {
		m.kick.Broadcast()
		sim.RunUntil(math.MaxInt64)
	}
	for i := 0; i < 4; i++ {
		write() // warm up the request pool and the reused slices
	}
	if got := fs.Stats().TotalRequests; got != 4*uint64(servers) {
		t.Fatalf("warm-up issued %d server requests, want %d", got, 4*servers)
	}
	return testing.AllocsPerRun(100, write)
}

// TestListWriteAllocsIndependentOfFanOut pins the pooled request path: a
// list write that fans out to 16 servers allocates no more than one that
// touches a single server, so nothing is allocated per server request or per
// pipeline stage.
func TestListWriteAllocsIndependentOfFanOut(t *testing.T) {
	one, all := listWriteAllocs(t, 1), listWriteAllocs(t, 16)
	if all > one {
		t.Fatalf("list write allocates %v times at 16 servers, %v at 1 server: the request path allocates per request", all, one)
	}
}
