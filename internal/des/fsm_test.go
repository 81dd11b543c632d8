package des_test

import (
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// sleeperFSM parks on a fixed-period Sleep forever: the idle-rank shape the
// scale benchmarks measure.
type sleeperFSM struct {
	period des.Time
	count  int
}

func (m *sleeperFSM) Step(p *des.Proc) {
	for {
		m.count++
		p.Sleep(m.period)
		if p.Yielded() {
			return
		}
	}
}

// countdownFSM sleeps n times, then finishes.
type countdownFSM struct {
	n      int
	period des.Time
	done   *int
}

func (m *countdownFSM) Step(p *des.Proc) {
	for m.n > 0 {
		m.n--
		p.Sleep(m.period)
		if p.Yielded() {
			return
		}
	}
	*m.done++
}

// signalWaiterFSM waits once, logs the wake, and schedules a post event.
type signalWaiterFSM struct {
	cond *des.Signal
	log  *[]string
	name string
	pc   int
}

func (m *signalWaiterFSM) Step(p *des.Proc) {
	switch m.pc {
	case 0:
		m.pc = 1
		m.cond.Wait(p)
		if p.Yielded() {
			return
		}
		fallthrough
	case 1:
		*m.log = append(*m.log, "wake-"+m.name)
		p.Sim().After(0, func() { *m.log = append(*m.log, "post-"+m.name) })
	}
}

// rewaitFSM waits, counts its wake, and immediately re-enters the wait list
// (the mid-chain re-wait shape of TestBroadcastRewaitNotRewoken).
type rewaitFSM struct {
	cond  *des.Signal
	wakes map[string]int
	name  string
	pc    int
}

func (m *rewaitFSM) Step(p *des.Proc) {
	switch m.pc {
	case 0:
		m.pc = 1
		m.cond.Wait(p)
	case 1:
		m.wakes[m.name]++
		m.pc = 2
		m.cond.Wait(p) // re-enter the wait list mid-chain
	case 2:
		m.wakes[m.name] += 100
	}
}

// resourceClientFSM issues n blocking Resource.Use calls, then retires one
// gate unit.
type resourceClientFSM struct {
	res *des.Resource
	d   des.Time
	n   int
	g   *des.Gate
}

func (m *resourceClientFSM) Step(p *des.Proc) {
	for m.n > 0 {
		m.n--
		m.res.Use(p, m.d)
		if p.Yielded() {
			return
		}
	}
	m.g.Done()
}

// gateJoinFSM waits for the gate with the Pending/Park re-check loop.
type gateJoinFSM struct {
	g      *des.Gate
	doneAt *des.Time
}

func (m *gateJoinFSM) Step(p *des.Proc) {
	for m.g.Pending() > 0 {
		m.g.Park(p)
		if p.Yielded() {
			return
		}
	}
	*m.doneAt = p.Now()
}

// TestFSMCompletes: an FSM process runs to completion across several parks,
// and the simulation accounts for it like any other process.
func TestFSMCompletes(t *testing.T) {
	s := des.New()
	done := 0
	p := s.SpawnFSM("c", &countdownFSM{n: 3, period: des.Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 || !p.Done() {
		t.Fatalf("done=%d p.Done()=%v, want the machine to finish exactly once", done, p.Done())
	}
	if s.Now() != 3*des.Microsecond {
		t.Fatalf("end time %v, want 3µs (three sleeps)", s.Now())
	}
}

// TestFSMDeadlockDiagnosed: a parked FSM process that can never be woken is
// reported in DeadlockError with its block reason.
func TestFSMDeadlockDiagnosed(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	s.SpawnFSM("stuck", &signalWaiterFSM{cond: cond, log: new([]string), name: "stuck"})
	err := s.Run()
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	if !strings.Contains(err.Error(), "stuck: waiting on signal") {
		t.Fatalf("deadlock diagnostics lost the FSM block reason: %v", err)
	}
}

// processKinds names the ways a test program can build its processes: all
// through the destest adapter, all as hand-written machines, or alternating.
var processKinds = []string{"adapter", "machine", "mixed"}

// machineFor reports whether the i-th process of a program run in the given
// kind is a hand-written machine.
func machineFor(kinds string) func(int) bool {
	return func(i int) bool { return kinds == "machine" || kinds == "mixed" && i%2 == 1 }
}

// TestMixedKindsEventEquivalence: a straight-line body run through the
// destest adapter and a hand-written machine replay the same schedule —
// end time, event count, join time — whether a run uses one kind or mixes
// both, with clients contending for one Resource and joined by a Gate.
func TestMixedKindsEventEquivalence(t *testing.T) {
	want := "contention end=0.000030s events=20 join=0.000030s"
	for _, kinds := range processKinds {
		if got := contentionRun(t, machineFor(kinds)); got != want {
			t.Errorf("%s schedule:\n got %s\nwant %s", kinds, got, want)
		}
	}
}

// TestBroadcastBatchOrderingMixedKinds: adapter and machine waiters, alone
// or interleaved on one signal, wake in FIFO order, and everything any of
// them schedules "now" runs after all of the chain's wakes.
func TestBroadcastBatchOrderingMixedKinds(t *testing.T) {
	want := "broadcast [cast cast-returned wake-a wake-b wake-c wake-d post-a post-b post-c post-d]"
	for _, kinds := range processKinds {
		if got := broadcastRun(t, machineFor(kinds)); got != want {
			t.Errorf("%s broadcast interleaving:\n got %s\nwant %s", kinds, got, want)
		}
	}
}

// TestBroadcastRewaitNotRewokenMixedKinds: a process of either kind that
// re-parks on the signal while the broadcast chain is still resuming is not
// woken again by the same broadcast, so the run deadlocks.
func TestBroadcastRewaitNotRewokenMixedKinds(t *testing.T) {
	want := "rewait deadlock=true wakes=map[a:1 b:1] waiters=2"
	for _, kinds := range processKinds {
		if got := rewaitRun(machineFor(kinds)); got != want {
			t.Errorf("%s re-wait outcome:\n got %s\nwant %s", kinds, got, want)
		}
	}
}

// contentionRun has three clients make five Resource.Use calls each on one
// disk and retire a gate unit, while a joiner waits for the gate.
func contentionRun(t *testing.T, machine func(int) bool) string {
	s := des.New()
	res := s.NewResource("disk", 1)
	g := s.NewGate(3)
	var joinAt des.Time
	for i := 0; i < 3; i++ {
		d := des.Time(i+1) * des.Microsecond
		if machine(i) {
			s.SpawnFSM("client", &resourceClientFSM{res: res, d: d, n: 5, g: g})
			continue
		}
		destest.Spawn(s, "client", func(p *des.Proc) {
			for k := 0; k < 5; k++ {
				res.Use(p, d)
				destest.Yield(p)
			}
			g.Done()
		})
	}
	if machine(3) {
		s.SpawnFSM("join", &gateJoinFSM{g: g, doneAt: &joinAt})
	} else {
		destest.Spawn(s, "join", func(p *des.Proc) { join(p, g); joinAt = p.Now() })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("contention end=%v events=%d join=%v", s.Now(), s.Events(), joinAt)
}

// broadcastRun parks four waiters on one signal and broadcasts it.
func broadcastRun(t *testing.T, machine func(int) bool) string {
	s := des.New()
	cond := s.NewSignal()
	var order []string
	for i, name := range []string{"a", "b", "c", "d"} {
		if machine(i) {
			s.SpawnFSM(name, &signalWaiterFSM{cond: cond, log: &order, name: name})
			continue
		}
		destest.Spawn(s, name, func(p *des.Proc) {
			destest.Wait(p, cond)
			order = append(order, "wake-"+name)
			s.After(0, func() { order = append(order, "post-"+name) })
		})
	}
	destest.Spawn(s, "caster", func(p *des.Proc) {
		destest.Sleep(p, des.Millisecond)
		order = append(order, "cast")
		cond.Broadcast()
		order = append(order, "cast-returned")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint("broadcast ", order)
}

// rewaitRun has two waiters re-enter the wait list while the broadcast
// chain that woke them is still resuming; the run must then deadlock.
func rewaitRun(machine func(int) bool) string {
	s := des.New()
	cond := s.NewSignal()
	wakes := make(map[string]int)
	for i, name := range []string{"a", "b"} {
		if machine(i) {
			s.SpawnFSM(name, &rewaitFSM{cond: cond, wakes: wakes, name: name})
			continue
		}
		destest.Spawn(s, name, func(p *des.Proc) {
			destest.Wait(p, cond)
			wakes[name]++
			destest.Wait(p, cond) // re-enter the wait list mid-chain
			wakes[name] += 100
		})
	}
	destest.Spawn(s, "caster", func(p *des.Proc) {
		destest.Sleep(p, 1)
		cond.Broadcast()
	})
	err := s.Run()
	return fmt.Sprintf("rewait deadlock=%v wakes=%v waiters=%d", err != nil, wakes, cond.Waiters())
}

// TestFSMParkResumeSteadyStateAllocs pins the scale tentpole's allocation
// budget: parking and resuming an idle FSM process costs nothing once the
// kernel pools are warm.
func TestFSMParkResumeSteadyStateAllocs(t *testing.T) {
	s := des.New()
	for i := 0; i < 4; i++ {
		s.SpawnFSM("p", &sleeperFSM{period: des.Microsecond})
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*des.Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM park/resume allocated %.1f/run, want 0", allocs)
	}
}

// doubleParkFSM blocks twice in one step without checking Yielded.
type doubleParkFSM struct{}

func (m *doubleParkFSM) Step(p *des.Proc) {
	p.Sleep(des.Microsecond)
	p.Sleep(des.Microsecond) // missing Yielded check: must panic
}

// mustPanic runs the simulation and requires a panic mentioning want.
func mustPanic(t *testing.T, s *des.Simulation, want string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	_ = s.Run()
}

// TestFSMDoubleParkPanics: arming a second park in one step is a programming
// error the kernel catches immediately instead of losing a wakeup.
func TestFSMDoubleParkPanics(t *testing.T) {
	s := des.New()
	s.SpawnFSM("bad", &doubleParkFSM{})
	mustPanic(t, s, "blocked twice in one step")
}

// timedScript is one timed-wait schedule: the waiter's deadlines in order
// and the instants a kernel callback signals the condition. It covers a
// signal win, a re-arm at the same deadline (which revives the tombstoned
// timer), a deadline win, a deadline at the present (no park), and a win
// after the timer fired.
var timedScript = struct {
	deadlines []des.Time
	signals   []des.Time
}{
	deadlines: []des.Time{10 * des.Microsecond, 10 * des.Microsecond, 20 * des.Microsecond, 20 * des.Microsecond, 30 * des.Microsecond},
	signals:   []des.Time{3 * des.Microsecond, 5 * des.Microsecond, 25 * des.Microsecond},
}

// timedScriptFSM runs timedScript's waits as a machine: arm, park, and read
// the outcome with TimedOut on the resume.
type timedScriptFSM struct {
	cond   *des.Signal
	i      int
	parked bool
	log    func(p *des.Proc, ok bool)
}

func (m *timedScriptFSM) Step(p *des.Proc) {
	for m.i < len(timedScript.deadlines) {
		if m.parked {
			m.parked = false
			m.log(p, !p.TimedOut())
			m.i++
			continue
		}
		ok := m.cond.WaitUntil(p, timedScript.deadlines[m.i])
		if p.Yielded() {
			m.parked = true
			return
		}
		m.log(p, ok)
		m.i++
	}
}

// runTimedScript runs timedScript on a machine and returns one line per
// wait: wake time, outcome, and calendar size.
func runTimedScript() []string {
	s := des.New()
	cond := s.NewSignal()
	var lines []string
	log := func(p *des.Proc, ok bool) {
		lines = append(lines, fmt.Sprintf("t=%v ok=%v pending=%d", p.Now(), ok, s.PendingEvents()))
	}
	for _, at := range timedScript.signals {
		s.At(at, cond.Signal)
	}
	s.SpawnFSM("waiter", &timedScriptFSM{cond: cond, log: log})
	if err := s.Run(); err != nil {
		lines = append(lines, err.Error())
	}
	return append(lines, fmt.Sprintf("end t=%v events=%d", s.Now(), s.Events()))
}

// TestWaitUntilSchedule pins a timed wait's schedule: wake times and
// outcomes, calendar entries (the revived tombstone included), and the
// event count.
func TestWaitUntilSchedule(t *testing.T) {
	want := []string{
		// Signal wins; the calendar holds the 5µs and 25µs signals and the
		// 10µs timer.
		"t=0.000003s ok=true pending=3",
		// The re-arm revived the 10µs timer instead of pushing another.
		"t=0.000005s ok=true pending=2",
		// The 10µs tombstone popped and was skipped; the 20µs timer fired.
		"t=0.000020s ok=false pending=1",
		// A deadline at the present returns without parking.
		"t=0.000020s ok=false pending=1",
		"t=0.000025s ok=true pending=1",
		// Start, three signal callbacks and their wakes, two timers that
		// fired or were skipped, and the 30µs tombstone.
		"end t=0.000030s events=10",
	}
	if got := runTimedScript(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("schedule:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFSMResetReuse: finished processes are recycled by Reset and reused
// by the next SpawnFSM.
func TestFSMResetReuse(t *testing.T) {
	s := des.New()
	done := 0
	first := s.SpawnFSM("c", &countdownFSM{n: 2, period: des.Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if again := s.SpawnFSM("f", &countdownFSM{n: 1, period: des.Microsecond, done: &done}); again != first {
		t.Fatal("Reset recycled no FSM processes")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("machines finished=%d, want 2", done)
	}
}
