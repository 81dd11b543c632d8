package des_test

import (
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/des/destest"
)

func TestTimeConversions(t *testing.T) {
	if des.FromSeconds(1.5) != des.Second+des.Second/2 {
		t.Fatalf("FromSeconds(1.5) = %v", des.FromSeconds(1.5))
	}
	if (2 * des.Second).Seconds() != 2 {
		t.Fatalf("Seconds = %v", (2 * des.Second).Seconds())
	}
	if (3 * des.Microsecond).Micros() != 3 {
		t.Fatalf("Micros = %v", (3 * des.Microsecond).Micros())
	}
	if got := (1500 * des.Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
	if des.Minute != 60*des.Second || des.Hour != 60*des.Minute {
		t.Fatal("calendar constants off")
	}
}

func TestProcAccessors(t *testing.T) {
	s := des.New()
	var p *des.Proc
	p = destest.Spawn(s, "worker", func(self *des.Proc) {
		if self.Name() != "worker" || self.ID() != 0 || self.Sim() != s {
			t.Error("proc accessors wrong inside body")
		}
		if self.Done() {
			t.Error("Done true while running")
		}
		destest.Sleep(self, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("Done false after completion")
	}
}

func TestResourceAccessorsAndValidation(t *testing.T) {
	s := des.New()
	r := s.NewResource("disk", 2)
	if r.Name() != "disk" || r.Capacity() != 2 {
		t.Fatalf("accessors: %s %d", r.Name(), r.Capacity())
	}
	if r.FreeAt() != 0 {
		t.Fatalf("FreeAt on idle resource = %v", r.FreeAt())
	}
	r.Submit(10, nil)
	r.Submit(10, nil)
	if r.FreeAt() != 10 {
		t.Fatalf("FreeAt with both slots busy = %v", r.FreeAt())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource accepted")
		}
	}()
	s.NewResource("bad", 0)
}

func TestGatePending(t *testing.T) {
	s := des.New()
	g := s.NewGate(2)
	if g.Pending() != 2 {
		t.Fatalf("Pending = %d", g.Pending())
	}
	g.Done()
	if g.Pending() != 1 {
		t.Fatalf("Pending after Done = %d", g.Pending())
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	s := des.New()
	sig := s.NewSignal()
	destest.Spawn(s, "stuck-proc", func(p *des.Proc) { destest.Wait(p, sig) })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "stuck-proc") ||
		!strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error = %v", err)
	}
}
