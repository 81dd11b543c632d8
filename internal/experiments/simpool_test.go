package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"s3asim/internal/core"
	"s3asim/internal/des"
	"s3asim/internal/des/destest"
	"s3asim/internal/stats"
)

// poolTestConfig is a small deterministic run for kernel-recycling checks.
func poolTestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = 6
	cfg.Workload.NumQueries = 4
	cfg.Workload.NumFragments = 8
	cfg.Workload.QueryHist = stats.Uniform(200, 2000)
	cfg.Workload.Seed = 11
	return cfg
}

// poolFingerprint condenses a report's virtual-time observables.
func poolFingerprint(rep *core.Report) string {
	s := fmt.Sprintf("overall=%d events=%d msgs=%d bytes=%d cover=%d flush=%v",
		rep.Overall, rep.Events, rep.Messages, rep.NetBytes, rep.FileCoverage,
		rep.BatchFlushTimes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// TestSimPoolRecyclesAfterError pins the executor's kernel-recycling policy
// for failed cells: a kernel whose run ended in an error (here a deadlock
// diagnosis, which leaves parked processes and a drained calendar behind)
// is returned to circulation through putAfterReset, and a run on the
// recycled kernel reproduces the fresh-kernel fingerprint exactly.
func TestSimPoolRecyclesAfterError(t *testing.T) {
	// Drive a kernel into an error: one process parks on a signal nobody
	// ever fires, so Run diagnoses a deadlock.
	dead := des.New()
	destest.Spawn(dead, "stuck", func(p *des.Proc) { destest.Wait(p, dead.NewSignal()) })
	if err := dead.Run(); err == nil {
		t.Fatal("expected a deadlock diagnosis")
	}

	var pool simPool
	pool.putAfterReset(dead)
	recycled := pool.get()
	if recycled != dead {
		t.Fatal("errored kernel was not recycled")
	}
	if recycled.Now() != 0 || recycled.PendingEvents() != 0 || recycled.Procs() != 0 {
		t.Fatalf("recycled kernel not clean: now=%d pending=%d procs=%d",
			recycled.Now(), recycled.PendingEvents(), recycled.Procs())
	}

	fresh := poolTestConfig()
	repFresh, err := core.Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	reused := poolTestConfig()
	reused.Sim = recycled
	repReused, err := core.Run(reused)
	if err != nil {
		t.Fatal(err)
	}
	if ff, fr := poolFingerprint(repFresh), poolFingerprint(repReused); ff != fr {
		t.Errorf("recycled kernel diverged from fresh:\n fresh    %s\n recycled %s", ff, fr)
	}
}

// TestSimPoolDropsNil pins the guard: error paths where the run never
// attached a kernel must not poison the pool.
func TestSimPoolDropsNil(t *testing.T) {
	var pool simPool
	pool.putAfterReset(nil)
	s := pool.get()
	if s == nil {
		t.Fatal("pool.get returned nil")
	}
}
