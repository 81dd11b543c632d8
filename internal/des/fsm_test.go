package des

import (
	"fmt"
	"strings"
	"testing"
)

// sleeperFSM parks on a fixed-period Sleep forever: the idle-rank shape the
// scale benchmarks measure.
type sleeperFSM struct {
	period Time
	count  int
}

func (m *sleeperFSM) Step(p *Proc) {
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
	period Time
	done   *int
}

func (m *countdownFSM) Step(p *Proc) {
	for m.n > 0 {
		m.n--
		p.Sleep(m.period)
		if p.Yielded() {
			return
		}
	}
	*m.done++
}

// signalWaiterFSM mirrors the goroutine waiter of TestBroadcastBatchOrdering:
// wait once, log the wake, schedule a post event.
type signalWaiterFSM struct {
	cond *Signal
	log  *[]string
	name string
	pc   int
}

func (m *signalWaiterFSM) Step(p *Proc) {
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

// rewaitFSM waits, counts its wake, and immediately re-enters the wait list —
// the mid-chain re-wait shape of TestBroadcastRewaitNotRewoken.
type rewaitFSM struct {
	cond  *Signal
	wakes map[string]int
	name  string
	pc    int
}

func (m *rewaitFSM) Step(p *Proc) {
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
// gate unit — the FSM twin of the goroutine client in the mixed-mode test.
type resourceClientFSM struct {
	res *Resource
	d   Time
	n   int
	g   *Gate
}

func (m *resourceClientFSM) Step(p *Proc) {
	for m.n > 0 {
		m.n--
		m.res.Use(p, m.d)
		if p.Yielded() {
			return
		}
	}
	m.g.Done()
}

// gateJoinFSM runs Gate.Wait's predicate loop in resumable form.
type gateJoinFSM struct {
	g      *Gate
	doneAt *Time
}

func (m *gateJoinFSM) Step(p *Proc) {
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
	s := New()
	done := 0
	p := s.SpawnFSM("c", &countdownFSM{n: 3, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 || !p.Done() {
		t.Fatalf("done=%d p.Done()=%v, want the machine to finish exactly once", done, p.Done())
	}
	if s.Now() != 3*Microsecond {
		t.Fatalf("end time %v, want 3µs (three sleeps)", s.Now())
	}
}

// TestFSMDeadlockDiagnosed: a parked FSM process that can never be woken is
// reported in DeadlockError with its block reason, like a stuck goroutine.
func TestFSMDeadlockDiagnosed(t *testing.T) {
	s := New()
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

// TestMixedKindsEventEquivalence pins the tentpole's core determinism claim:
// the same program produces the same schedule — end time, event count, join
// time — whether its processes are goroutines or state machines, including
// when the two kinds contend for one Resource and one Gate in the same run.
func TestMixedKindsEventEquivalence(t *testing.T) {
	run := func(mixed bool) (Time, uint64, Time) {
		s := New()
		res := s.NewResource("disk", 1)
		g := s.NewGate(3)
		var joinAt Time
		for i := 0; i < 3; i++ {
			d := Time(i+1) * Microsecond
			if mixed && i%2 == 0 {
				s.SpawnFSM("client", &resourceClientFSM{res: res, d: d, n: 5, g: g})
			} else {
				s.Spawn("client", func(p *Proc) {
					for k := 0; k < 5; k++ {
						res.Use(p, d)
					}
					g.Done()
				})
			}
		}
		if mixed {
			s.SpawnFSM("join", &gateJoinFSM{g: g, doneAt: &joinAt})
		} else {
			s.Spawn("join", func(p *Proc) { g.Wait(p); joinAt = p.Now() })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.Events(), joinAt
	}
	tg, eg, jg := run(false)
	tf, ef, jf := run(true)
	if tg != tf || eg != ef || jg != jf {
		t.Fatalf("mixed-kind run diverged from all-goroutine run:\n goroutine (end=%v events=%d join=%v)\n mixed     (end=%v events=%d join=%v)",
			tg, eg, jg, tf, ef, jf)
	}
}

// TestBroadcastBatchOrderingMixedKinds extends the PR 5 broadcast-determinism
// pin across process kinds: goroutine and FSM waiters interleaved on one
// signal wake in FIFO order, and everything any of them schedules "now" runs
// after ALL of the chain's wakes.
func TestBroadcastBatchOrderingMixedKinds(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	var order []string
	spawnGoroutine := func(name string) {
		s.Spawn(name, func(p *Proc) {
			cond.Wait(p)
			order = append(order, "wake-"+name)
			s.After(0, func() { order = append(order, "post-"+name) })
		})
	}
	spawnMachine := func(name string) {
		s.SpawnFSM(name, &signalWaiterFSM{cond: cond, log: &order, name: name})
	}
	spawnGoroutine("a")
	spawnMachine("b")
	spawnGoroutine("c")
	spawnMachine("d")
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(Millisecond)
		order = append(order, "cast")
		cond.Broadcast()
		order = append(order, "cast-returned")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{
		"cast", "cast-returned",
		"wake-a", "wake-b", "wake-c", "wake-d",
		"post-a", "post-b", "post-c", "post-d",
	})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("mixed-kind broadcast interleaving changed:\n got %s\nwant %s", got, want)
	}
}

// TestBroadcastRewaitNotRewokenMixedKinds: an FSM process that re-parks on
// the signal while the broadcast chain is still resuming must not be re-woken
// by the same broadcast, matching the goroutine rule.
func TestBroadcastRewaitNotRewokenMixedKinds(t *testing.T) {
	s := New()
	cond := s.NewSignal()
	wakes := make(map[string]int)
	s.Spawn("a", func(p *Proc) {
		cond.Wait(p)
		wakes["a"]++
		cond.Wait(p)
		wakes["a"] += 100
	})
	s.SpawnFSM("b", &rewaitFSM{cond: cond, wakes: wakes, name: "b"})
	s.Spawn("caster", func(p *Proc) {
		p.Sleep(1)
		cond.Broadcast()
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected a deadlock: re-waiters must not be re-woken by the same broadcast")
	}
	if wakes["a"] != 1 || wakes["b"] != 1 {
		t.Fatalf("wake counts = %v, want exactly one wake each", wakes)
	}
	if cond.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2 re-entered waiters", cond.Waiters())
	}
}

// TestFSMParkResumeSteadyStateAllocs pins the scale tentpole's allocation
// budget: parking and resuming an idle FSM process costs nothing once the
// kernel pools are warm.
func TestFSMParkResumeSteadyStateAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		s.SpawnFSM("p", &sleeperFSM{period: Microsecond})
	}
	if allocs := kernelSteadyStateAllocs(t, s, 8*Microsecond); allocs != 0 {
		t.Fatalf("steady-state FSM park/resume allocated %.1f/run, want 0", allocs)
	}
}

// doubleParkFSM blocks twice in one step without checking Yielded.
type doubleParkFSM struct{}

func (m *doubleParkFSM) Step(p *Proc) {
	p.Sleep(Microsecond)
	p.Sleep(Microsecond) // missing Yielded check: must panic
}

// mustPanic runs the simulation and requires a panic mentioning want.
func mustPanic(t *testing.T, s *Simulation, want string) {
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
	s := New()
	s.SpawnFSM("bad", &doubleParkFSM{})
	mustPanic(t, s, "blocked twice in one step")
}

// timedScript is one timed-wait schedule: the waiter's deadlines in order
// and the instants a kernel callback signals the condition. It covers a
// signal win, a re-arm at the same deadline (which revives the tombstoned
// timer), a deadline win, a deadline at the present (no park), and a win
// after the timer fired.
var timedScript = struct {
	deadlines []Time
	signals   []Time
}{
	deadlines: []Time{10 * Microsecond, 10 * Microsecond, 20 * Microsecond, 20 * Microsecond, 30 * Microsecond},
	signals:   []Time{3 * Microsecond, 5 * Microsecond, 25 * Microsecond},
}

// timedScriptFSM runs timedScript's waits as a machine: arm, park, and read
// the outcome with TimedOut on the resume.
type timedScriptFSM struct {
	cond   *Signal
	i      int
	parked bool
	log    func(p *Proc, ok bool)
}

func (m *timedScriptFSM) Step(p *Proc) {
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

// runTimedScript runs timedScript on an FSM or a goroutine process and
// returns one line per wait: wake time, outcome, and calendar size.
func runTimedScript(fsm bool) []string {
	s := New()
	cond := s.NewSignal()
	var lines []string
	log := func(p *Proc, ok bool) {
		lines = append(lines, fmt.Sprintf("t=%v ok=%v pending=%d", p.Now(), ok, s.PendingEvents()))
	}
	for _, at := range timedScript.signals {
		s.At(at, cond.Signal)
	}
	if fsm {
		s.SpawnFSM("waiter", &timedScriptFSM{cond: cond, log: log})
	} else {
		s.Spawn("waiter", func(p *Proc) {
			for _, d := range timedScript.deadlines {
				log(p, cond.WaitUntil(p, d))
			}
		})
	}
	if err := s.Run(); err != nil {
		lines = append(lines, err.Error())
	}
	return append(lines, fmt.Sprintf("end t=%v events=%d", s.Now(), s.Events()))
}

// TestFSMWaitUntilMatchesGoroutine: a timed wait on an FSM process replays
// the goroutine form's schedule exactly — same wake times and outcomes,
// same calendar entries (the revived tombstone included), same event count.
func TestFSMWaitUntilMatchesGoroutine(t *testing.T) {
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
	gor, fsm := runTimedScript(false), runTimedScript(true)
	if strings.Join(gor, "\n") != strings.Join(want, "\n") {
		t.Errorf("goroutine schedule:\n%s\nwant:\n%s", strings.Join(gor, "\n"), strings.Join(want, "\n"))
	}
	if strings.Join(fsm, "\n") != strings.Join(gor, "\n") {
		t.Errorf("FSM schedule:\n%s\ngoroutine:\n%s", strings.Join(fsm, "\n"), strings.Join(gor, "\n"))
	}
}

type gateWaitFSM struct{ g *Gate }

func (m *gateWaitFSM) Step(p *Proc) { m.g.Wait(p) }

// TestFSMGateWaitPanics: the hidden predicate loop in Gate.Wait is rejected
// for FSM processes, which must use the Park/Pending re-check pattern.
func TestFSMGateWaitPanics(t *testing.T) {
	s := New()
	s.SpawnFSM("bad", &gateWaitFSM{g: s.NewGate(1)})
	mustPanic(t, s, "Gate.Wait is not supported for FSM processes")
}

// TestFSMResetReuse: finished FSM processes are recycled by Reset and can be
// reused by either spawn form; a goroutine respawn lazily creates the parker
// channel an FSM process never needed.
func TestFSMResetReuse(t *testing.T) {
	s := New()
	done := 0
	s.SpawnFSM("c", &countdownFSM{n: 2, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if len(s.procPool) == 0 {
		t.Fatal("Reset recycled no FSM processes")
	}
	ranGoroutine := false
	s.Spawn("g", func(p *Proc) { p.Sleep(Microsecond); ranGoroutine = true })
	s.SpawnFSM("f", &countdownFSM{n: 1, period: Microsecond, done: &done})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranGoroutine || done != 2 {
		t.Fatalf("reuse run incomplete: goroutine ran=%v, machines finished=%d (want 2)",
			ranGoroutine, done)
	}
}
