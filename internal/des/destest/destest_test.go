package destest_test

import (
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

// runPanic runs s and returns the text of the panic Run raised, or "" when
// it returned.
func runPanic(s *des.Simulation) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	_ = s.Run()
	return ""
}

// TestBodyReturnsWithParkArmed: a body that arms a park and returns without
// yielding would lose its wakeup; the adapter panics instead.
func TestBodyReturnsWithParkArmed(t *testing.T) {
	s := des.New()
	destest.Spawn(s, "leaky", func(p *des.Proc) { p.Sleep(des.Microsecond) })
	if msg := runPanic(s); !strings.Contains(msg, "leaky returned with a park armed") {
		t.Fatalf("panic %q, want a missing-Yield report", msg)
	}
}

// TestResumeAfterReturn: stepping a machine whose body has returned (here:
// spawning the same machine twice) panics.
func TestResumeAfterReturn(t *testing.T) {
	s := des.New()
	m := destest.Machine(func(*des.Proc) {})
	s.SpawnFSM("once", m)
	if msg := runPanic(s); msg != "" {
		t.Fatalf("first run panicked: %s", msg)
	}
	s.SpawnFSM("twice", m)
	if msg := runPanic(s); !strings.Contains(msg, "twice resumed after its body returned") {
		t.Fatalf("panic %q, want a resumed-after-return report", msg)
	}
}

// TestSecondPrimitiveWithoutYield: a second blocking primitive before Yield
// hits the kernel's blocked-twice check, raised on the kernel's goroutine.
func TestSecondPrimitiveWithoutYield(t *testing.T) {
	s := des.New()
	destest.Spawn(s, "hasty", func(p *des.Proc) {
		p.Sleep(des.Microsecond)
		p.Sleep(des.Microsecond)
	})
	if msg := runPanic(s); !strings.Contains(msg, "hasty blocked twice in one step") {
		t.Fatalf("panic %q, want the kernel's blocked-twice report", msg)
	}
}

// TestAwaitWithoutPark: an op step that reports not done without parking
// would spin forever; Await panics instead.
func TestAwaitWithoutPark(t *testing.T) {
	s := des.New()
	destest.Spawn(s, "spinner", func(p *des.Proc) {
		destest.Await(p, func() bool { return false })
	})
	if msg := runPanic(s); !strings.Contains(msg, "spinner reported not done without parking") {
		t.Fatalf("panic %q, want a no-park report", msg)
	}
}

// TestDeadlockNamesBody: a body parked on a signal nobody fires is reported
// by name and reason.
func TestDeadlockNamesBody(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	destest.Spawn(s, "stuck", func(p *des.Proc) { destest.Wait(p, cond) })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "stuck: waiting on signal") {
		t.Fatalf("err = %v, want a deadlock naming stuck and its reason", err)
	}
}

// TestYieldHandoffAllocs: a steady Yield handoff between the kernel and a
// body allocates nothing.
func TestYieldHandoffAllocs(t *testing.T) {
	s := des.New()
	destest.Spawn(s, "sleeper", func(p *des.Proc) {
		for {
			destest.Sleep(p, des.Microsecond)
		}
	})
	limit := des.Time(0)
	step := func() {
		limit += 8 * des.Microsecond
		s.RunUntil(limit)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady Yield handoff allocated %.1f/run, want 0", allocs)
	}
}

// TestWaitUntilOutcomes: WaitUntil reports a signal win, a timeout, and a
// deadline at the present without parking.
func TestWaitUntilOutcomes(t *testing.T) {
	s := des.New()
	cond := s.NewSignal()
	s.At(3*des.Microsecond, cond.Signal)
	var got []string
	destest.Spawn(s, "waiter", func(p *des.Proc) {
		for _, d := range []des.Time{10, 20, 20} {
			ok := destest.WaitUntil(p, cond, d*des.Microsecond)
			got = append(got, fmt.Sprintf("%v:%v", p.Now(), ok))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[0.000003s:true 0.000020s:false 0.000020s:false]"
	if fmt.Sprint(got) != want {
		t.Fatalf("outcomes %v, want %s", got, want)
	}
}
