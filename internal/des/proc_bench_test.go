package des_test

import (
	"testing"

	"s3asim/internal/des"
)

// BenchmarkProcSwitch measures a full kernel↔process round trip with two
// processes alternating: each iteration is one tagged resume event and one
// machine step.
func BenchmarkProcSwitch(b *testing.B) {
	s := des.New()
	iters := b.N/2 + 1
	for i := 0; i < 2; i++ {
		s.SpawnFSM("p", &loopFSM{n: iters, park: func(p *des.Proc) { p.Sleep(1) }})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepWake measures the Signal wait/wake cycle: one process parks
// on a condition, another signals it and sleeps. Each iteration exercises
// waiter enqueue (pooled), the tagged evWake event, and two process steps.
func BenchmarkSleepWake(b *testing.B) {
	s := des.New()
	cond := s.NewSignal()
	s.SpawnFSM("sleeper", &loopFSM{n: b.N, park: cond.Wait})
	s.SpawnFSM("waker", &loopFSM{n: b.N, park: func(p *des.Proc) {
		cond.Signal()
		p.Sleep(1)
	}})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimedWaitRearm measures the resilient protocol's steady state: a
// timed wait that is always won by the signal and immediately re-armed at
// the same deadline (the WaitAnyOp deadline loop). This is the path the
// timer tombstone/revival fix targets — the pre-rewrite kernel left every
// cancelled deadline queued, so the calendar grew by one entry per
// iteration and each push paid a growing sift.
func BenchmarkTimedWaitRearm(b *testing.B) {
	s := des.New()
	cond := s.NewSignal()
	deadline := des.Time(b.N+1) * des.Microsecond * 2
	s.SpawnFSM("waiter", &timedLoopFSM{cond: cond, deadline: deadline, n: b.N,
		observe: func(i int, ok bool) bool {
			if !ok {
				b.Error("timed out")
			}
			return ok
		}})
	s.SpawnFSM("waker", &loopFSM{n: b.N, park: func(p *des.Proc) {
		cond.Signal()
		p.Sleep(des.Microsecond)
	}})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBroadcastFanout measures waking a full wait list: 32 processes
// park on one condition, a caster broadcasts, everyone loops. Each
// broadcast is one batched calendar event (the pre-rewrite kernel queued
// one closure event per waiter).
func BenchmarkBroadcastFanout(b *testing.B) {
	const procs = 32
	s := des.New()
	cond := s.NewSignal()
	rounds := b.N/procs + 1
	for i := 0; i < procs; i++ {
		s.SpawnFSM("w", &loopFSM{n: rounds, park: cond.Wait})
	}
	s.SpawnFSM("caster", &loopFSM{n: rounds, park: func(p *des.Proc) {
		cond.Broadcast()
		p.Sleep(des.Microsecond) // let every waiter re-park
	}})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGateFanIn measures many processes joining one gate.
func BenchmarkGateFanIn(b *testing.B) {
	s := des.New()
	const procs = 64
	g := s.NewGate(procs)
	iters := b.N/procs + 1
	for i := 0; i < procs; i++ {
		s.SpawnFSM("w", &loopFSM{n: iters, park: func(p *des.Proc) { p.Sleep(1) }, done: g.Done})
	}
	var joinAt des.Time
	s.SpawnFSM("j", &gateJoinFSM{g: g, doneAt: &joinAt})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
