package pvfs

import (
	"testing"

	"s3asim/internal/des"
)

func TestNewValidation(t *testing.T) {
	sim := des.New()
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		New(sim, cfg)
	}
	bad := testConfig()
	bad.NumServers = 0
	mustPanic("no servers", bad)
	bad = testConfig()
	bad.StripSize = 0
	mustPanic("zero strip", bad)
}

func TestFeynmanLikeShape(t *testing.T) {
	cfg := FeynmanLike()
	if cfg.NumServers != 16 {
		t.Fatalf("servers = %d, want 16 (paper §3.2)", cfg.NumServers)
	}
	if cfg.StripSize != 64*1024 {
		t.Fatalf("strip = %d, want 64 KB (paper §3.2)", cfg.StripSize)
	}
	if cfg.RequestOverhead <= 0 || cfg.SegmentOverhead <= 0 || cfg.ServiceBandwidth <= 0 {
		t.Fatalf("cost model incomplete: %+v", cfg)
	}
}

func TestFileNameAndConfigAccessors(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	if fs.Config().NumServers != 4 {
		t.Fatal("Config accessor")
	}
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "results.out")
		if f.Name() != "results.out" {
			t.Errorf("Name = %q", f.Name())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteZeroLengthIsNoop(t *testing.T) {
	sim := des.New()
	fs := New(sim, testConfig())
	port := freePort(sim)
	sim.Spawn("c", func(p *des.Proc) {
		f := fs.Create(p, "x")
		before := p.Now()
		f.Write(p, port, 10, 0, 10)
		f.WriteList(p, port, nil)
		if got := f.Read(p, port, 0, 0); got != nil {
			t.Error("zero-length read returned data")
		}
		if p.Now() != before {
			t.Error("zero-length ops consumed time")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().TotalRequests != 0 {
		t.Fatal("zero-length ops issued requests")
	}
}

func TestLockingSerializesFalseSharing(t *testing.T) {
	// Two clients write adjacent, NON-overlapping 100-byte ranges inside
	// one 400-byte lock unit. Lock-free PVFS2 semantics let the requests
	// proceed without cross-serialization; a lock-based file system
	// serializes them (§3.1's false sharing).
	run := func(lockGran int64) des.Time {
		sim := des.New()
		cfg := testConfig()
		cfg.CaptureData = false
		cfg.NumServers = 2
		cfg.StripSize = 100
		cfg.LockGranularity = lockGran
		fs := New(sim, cfg)
		var f *File
		sim.Spawn("setup", func(p *des.Proc) { f = fs.Create(p, "x") })
		var last des.Time
		for i := 0; i < 2; i++ {
			i := i
			port := freePort(sim)
			sim.Spawn("c", func(p *des.Proc) {
				p.Sleep(2 * des.Millisecond)
				// Offsets 0 and 100: different strips, different SERVERS,
				// same 400-byte lock unit.
				f.Write(p, port, int64(i)*100, 100, int64(i)*100)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	free := run(0)
	locked := run(400)
	if locked <= free {
		t.Fatalf("lock-based FS (%v) not slower than lock-free (%v)", locked, free)
	}
}

func TestLockingDisjointUnitsStayParallel(t *testing.T) {
	// Writes in different lock units must not serialize against each other.
	run := func(lockGran int64) des.Time {
		sim := des.New()
		cfg := testConfig()
		cfg.CaptureData = false
		cfg.NumServers = 1
		cfg.StripSize = 1 << 20
		cfg.LockGranularity = lockGran
		fs := New(sim, cfg)
		var f *File
		sim.Spawn("setup", func(p *des.Proc) { f = fs.Create(p, "x") })
		var last des.Time
		for i := 0; i < 2; i++ {
			i := i
			port := freePort(sim)
			sim.Spawn("c", func(p *des.Proc) {
				p.Sleep(2 * des.Millisecond)
				f.Write(p, port, int64(i)*1000, 100, int64(i)*1000) // units 0 and 2 at gran 400
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if free, locked := run(0), run(400); locked != free {
		t.Fatalf("disjoint lock units changed timing: %v vs %v", locked, free)
	}
}
