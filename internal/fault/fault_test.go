package fault

import (
	"reflect"
	"strings"
	"testing"

	"s3asim/internal/des"
)

func TestParseDocExamples(t *testing.T) {
	p, err := Parse("seed=42; crash@2s:rank=3,restart=5s; slow@1s:rank=2,factor=4,for=10s;" +
		"outage@3s:server=5,for=2s; degrade@0s:server=1,factor=8,for=5s;" +
		"drop:prob=0.01; delay:prob=0.05,extra=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d", p.Seed)
	}
	want := []Event{
		{Kind: Crash, At: 2 * des.Second, Rank: 3, Server: -1, Restart: 5 * des.Second},
		{Kind: Slow, At: des.Second, Rank: 2, Server: -1, Factor: 4, For: 10 * des.Second},
		{Kind: Outage, At: 3 * des.Second, Rank: -1, Server: 5, For: 2 * des.Second},
		{Kind: Degrade, Rank: -1, Server: 1, Factor: 8, For: 5 * des.Second},
		{Kind: Drop, Rank: -1, Server: -1, Prob: 0.01},
		{Kind: Delay, Rank: -1, Server: -1, Prob: 0.05, Extra: 10 * des.Millisecond},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events = %+v\nwant %+v", p.Events, want)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"explode@1s:rank=2",           // unknown kind
		"crash@oops:rank=2",           // bad start time
		"crash@1s:rank",               // missing '='
		"crash@1s:rank=two",           // bad value
		"crash@1s:color=red",          // unknown key
		"seed=abc",                    // bad seed
		"crash@1s",                    // crash needs rank
		"slow@1s:rank=2",              // slow needs factor
		"slow@1s:rank=2,factor=-1",    // factor must be positive
		"outage@1s:server=0",          // outage needs for > 0
		"degrade@1s:server=0",         // degrade needs factor
		"drop:prob=1.5",               // prob out of range
		"delay:prob=0.5",              // delay needs extra
		"crash@1s:rank=2,restart=-2s", // negative duration
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		} else if !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("Parse(%q) error %q lacks the package prefix", spec, err)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 7,
		Events: []Event{
			{Kind: Crash, At: 20 * des.Millisecond, Rank: 4, Server: -1, Restart: des.Second},
			{Kind: Slow, At: 0, Rank: 2, Server: -1, Factor: 3.5},
			{Kind: Outage, At: des.Second, Rank: -1, Server: 0, For: 250 * des.Millisecond},
			{Kind: Degrade, At: 0, Rank: -1, Server: 3, Factor: 2, For: des.Second},
			{Kind: Drop, Rank: -1, Server: -1, Prob: 0.125},
			{Kind: Delay, At: des.Millisecond, Rank: -1, Server: -1, Prob: 1, Extra: 42 * des.Microsecond},
			{Kind: Outage, At: 2 * des.Second, Rank: -1, Server: 1, For: des.Millisecond, Phase: PhaseRead},
			{Kind: Drop, Rank: -1, Server: -1, Prob: 0.5, Phase: PhaseWrite},
		},
	}
	got, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\n in %+v\nout %+v", p, got)
	}
}

func TestEmptyPlanBehavior(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.IsEmpty() || nilPlan.String() != "" {
		t.Fatal("nil plan must be empty")
	}
	if err := nilPlan.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := nilPlan.ValidateFor(4, 2, []int{0}, false); err != nil {
		t.Fatal(err)
	}
	p, err := Parse("  ;  ")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsEmpty() {
		t.Fatal("blank spec must parse to an empty plan")
	}
}

func TestValidateForTopology(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"crash@1s:rank=3", true},
		{"crash@1s:rank=8", false},        // rank out of range
		{"crash@1s:rank=0", false},        // master
		{"crash@1s:rank=4", false},        // second group's master
		{"slow@1s:rank=0,factor=2", true}, // slowing a master is legal
		{"outage@1s:server=1,for=1s", true},
		{"outage@1s:server=2,for=1s", false}, // server out of range
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		err = p.ValidateFor(8, 2, []int{0, 4}, false)
		if ok := err == nil; ok != c.ok {
			t.Errorf("ValidateFor(%q) error = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

// TestPhaseRules pins the phase= grammar: only window faults may be
// phase-scoped, the value set is closed, and phase=read events require a
// run with readback configured.
func TestPhaseRules(t *testing.T) {
	bad := []string{
		"outage@1s:server=0,for=1s,phase=compute", // unknown phase value
		"crash@1s:rank=3,phase=read",              // crash is not a window fault
		"slow@1s:rank=3,factor=2,phase=write",     // neither is slow
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid phase", spec)
		}
	}

	p, err := Parse("outage@1s:server=0,for=1s,phase=read; degrade@1s:server=1,factor=2,for=1s,phase=write")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateFor(8, 2, []int{0}, false); err == nil {
		t.Error("phase=read accepted without readback")
	}
	if err := p.ValidateFor(8, 2, []int{0}, true); err != nil {
		t.Errorf("phase=read rejected with readback: %v", err)
	}
	// phase=write alone never needs readback.
	wp, err := Parse("drop@0s:prob=0.1,phase=write")
	if err != nil {
		t.Fatal(err)
	}
	if err := wp.ValidateFor(8, 2, []int{0}, false); err != nil {
		t.Errorf("phase=write rejected without readback: %v", err)
	}
}

func TestRandomCrashesProperties(t *testing.T) {
	workers := []int{1, 2, 3, 5, 6, 7}
	lo, hi := 10*des.Millisecond, des.Second

	a := RandomCrashes(9, 4, workers, lo, hi, 0)
	b := RandomCrashes(9, 4, workers, lo, hi, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments produced different schedules")
	}
	if len(a.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(a.Events))
	}
	seen := map[int]bool{}
	isWorker := map[int]bool{}
	for _, w := range workers {
		isWorker[w] = true
	}
	var prev des.Time
	for _, e := range a.Events {
		if e.Kind != Crash || e.Restart != 0 {
			t.Fatalf("unexpected event %+v", e)
		}
		if !isWorker[e.Rank] {
			t.Fatalf("crash targets non-worker rank %d", e.Rank)
		}
		if seen[e.Rank] {
			t.Fatalf("rank %d crashed twice without restart", e.Rank)
		}
		seen[e.Rank] = true
		if e.At < lo || e.At >= hi {
			t.Fatalf("crash time %v outside [%v, %v)", e.At, lo, hi)
		}
		if e.At < prev {
			t.Fatal("events not sorted by time")
		}
		prev = e.At
	}

	// Without restart the schedule is capped at one crash per worker.
	if got := RandomCrashes(9, 100, workers, lo, hi, 0); len(got.Events) != len(workers) {
		t.Fatalf("uncapped permanent crashes: %d events", len(got.Events))
	}
	// With restart, repeats are allowed and n is honored.
	if got := RandomCrashes(9, 100, workers, lo, hi, des.Second); len(got.Events) != 100 {
		t.Fatalf("restart schedule truncated: %d events", len(got.Events))
	}
	// Degenerate inputs yield an empty (but non-nil) plan.
	if got := RandomCrashes(9, 0, workers, lo, hi, 0); !got.IsEmpty() {
		t.Fatal("n=0 produced events")
	}
	if got := RandomCrashes(9, 3, nil, lo, hi, 0); !got.IsEmpty() {
		t.Fatal("no workers produced events")
	}
	if got := RandomCrashes(9, 3, workers, hi, lo, 0); !got.IsEmpty() {
		t.Fatal("inverted window produced events")
	}
}

func TestEventActiveWindow(t *testing.T) {
	e := Event{Kind: Slow, At: 10, For: 5}
	for _, c := range []struct {
		t    des.Time
		want bool
	}{{9, false}, {10, true}, {14, true}, {15, false}} {
		if got := e.active(c.t); got != c.want {
			t.Errorf("active(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	open := Event{Kind: Slow, At: 10} // For == 0: until the end of the run
	if !open.active(1 << 40) {
		t.Error("open-ended window closed")
	}
}

// TestRandomCrashesGolden pins the crash schedules RandomCrashes draws,
// without restart (which shuffles the worker pool) and with it (which
// draws a rank per crash).
func TestRandomCrashesGolden(t *testing.T) {
	workers := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	cases := []struct {
		restart des.Time
		want    string
	}{
		{0, "seed=424242;crash@734.295419ms:rank=10;crash@998.105127ms:rank=13;crash@1.031685805s:rank=3;" +
			"crash@1.066973085s:rank=5;crash@1.850528436s:rank=14;crash@1.948815992s:rank=12"},
		{25 * des.Millisecond, "seed=424242;crash@111.550529ms:rank=3,restart=25ms;crash@201.101425ms:rank=2,restart=25ms;" +
			"crash@594.406607ms:rank=13,restart=25ms;crash@976.227437ms:rank=7,restart=25ms;" +
			"crash@1.377423962s:rank=13,restart=25ms;crash@1.40959453s:rank=1,restart=25ms"},
	}
	for _, c := range cases {
		p := RandomCrashes(424242, 6, workers, 100*des.Millisecond, 2*des.Second, c.restart)
		if got := p.String(); got != c.want {
			t.Errorf("restart %v: plan = %q, want %q", c.restart, got, c.want)
		}
	}
}
