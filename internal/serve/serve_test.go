package serve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"s3asim/internal/des"
)

func poissonPlan(rate float64, horizon des.Time) Plan {
	return Plan{
		Seed:    42,
		Horizon: horizon,
		Tenants: []Tenant{{Name: "t0", Rate: rate, Process: Poisson}},
	}
}

// A seeded Poisson stream's empirical rate must sit near λ: over a horizon
// with expected count N = λT, the observed count is within 5σ = 5√N.
func TestPoissonEmpiricalRate(t *testing.T) {
	const rate = 200.0
	horizon := 100 * des.Second
	arr, err := poissonPlan(rate, horizon).Generate()
	if err != nil {
		t.Fatal(err)
	}
	expected := rate * horizon.Seconds()
	slack := 5 * math.Sqrt(expected)
	if got := float64(len(arr)); math.Abs(got-expected) > slack {
		t.Fatalf("poisson count %v, expected %v ± %v", got, expected, slack)
	}
	// Gaps are iid Exp(λ): the mean gap must be near 1/λ.
	var sum float64
	for i := 1; i < len(arr); i++ {
		sum += (arr[i].At - arr[i-1].At).Seconds()
	}
	mean := sum / float64(len(arr)-1)
	if math.Abs(mean-1/rate) > 0.1/rate {
		t.Fatalf("mean gap %v, want ≈ %v", mean, 1/rate)
	}
}

func TestGenerateDeterministicSortedAndScaled(t *testing.T) {
	p := Plan{
		Seed:    7,
		Horizon: 20 * des.Second,
		Tenants: []Tenant{
			{Name: "steady", Rate: 40, Process: Poisson},
			{Name: "spiky", Rate: 30, Process: Bursty, BurstFactor: 8, BurstFrac: 0.1, BurstDwell: des.Second},
			{Name: "wave", Rate: 30, Process: Diurnal, Period: 5 * des.Second, Amplitude: 0.8},
		},
	}
	a, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan generated different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	tenants := map[string]int{}
	for i, ar := range a {
		if i > 0 && ar.At < a[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if ar.At < 0 || ar.At >= p.Horizon {
			t.Fatalf("arrival %d outside horizon: %v", i, ar.At)
		}
		tenants[ar.Tenant]++
	}
	for _, tn := range p.Tenants {
		if tenants[tn.Name] == 0 {
			t.Fatalf("tenant %s produced no arrivals (got %v)", tn.Name, tenants)
		}
	}

	// Scaling the offered load up must increase volume without touching the
	// original plan, and OfferedRate must scale exactly.
	doubled, err := p.Scaled(2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(doubled) <= len(a) {
		t.Fatalf("2x load produced %d arrivals vs %d", len(doubled), len(a))
	}
	if got, want := p.Scaled(2).OfferedRate(), 2*p.OfferedRate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("scaled offered rate %v, want %v", got, want)
	}
	if p.Tenants[0].Rate != 40 {
		t.Fatal("Scaled mutated the receiver")
	}
}

// The bursty process long-run mean rate stays near the nominal Rate, and the
// stream is actually bursty: the busiest dwell-sized bin carries far more
// than the mean bin.
func TestBurstyMeanRateAndBurstiness(t *testing.T) {
	p := Plan{
		Seed:    3,
		Horizon: 200 * des.Second,
		Tenants: []Tenant{{
			Name: "b", Rate: 50, Process: Bursty,
			BurstFactor: 6, BurstFrac: 0.1, BurstDwell: des.Second,
		}},
	}
	arr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	expected := 50 * p.Horizon.Seconds()
	if got := float64(len(arr)); math.Abs(got-expected) > 0.15*expected {
		t.Fatalf("bursty count %v, expected ≈ %v", got, expected)
	}
	bins := make([]int, int(p.Horizon/des.Second))
	for _, a := range arr {
		bins[int(a.At/des.Second)]++
	}
	maxBin := 0
	for _, b := range bins {
		if b > maxBin {
			maxBin = b
		}
	}
	mean := float64(len(arr)) / float64(len(bins))
	if float64(maxBin) < 2.5*mean {
		t.Fatalf("no burst visible: max bin %d vs mean %.1f", maxBin, mean)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Seed: 1, Horizon: 0, Tenants: []Tenant{{Rate: 1}}},
		{Seed: 1, Horizon: des.Second},
		{Seed: 1, Horizon: des.Second, Tenants: []Tenant{{Rate: 0}}},
		{Seed: 1, Horizon: des.Second, Tenants: []Tenant{{Rate: 1, Process: Bursty, BurstFactor: 0.5, BurstFrac: 0.1, BurstDwell: des.Second}}},
		{Seed: 1, Horizon: des.Second, Tenants: []Tenant{{Rate: 1, Process: Bursty, BurstFactor: 2, BurstFrac: 1.5, BurstDwell: des.Second}}},
		{Seed: 1, Horizon: des.Second, Tenants: []Tenant{{Rate: 1, Process: Diurnal, Period: 0}}},
		{Seed: 1, Horizon: des.Second, Tenants: []Tenant{{Rate: 1, Process: Diurnal, Period: des.Second, Amplitude: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: bad plan accepted", i)
		}
		if _, err := p.Generate(); err == nil {
			t.Fatalf("case %d: Generate accepted bad plan", i)
		}
	}
}

func TestPartitionBandsTileAndOrder(t *testing.T) {
	lat := make([]des.Time, 2000)
	for i := range lat {
		lat[i] = des.Time(i+1) * des.Millisecond
	}
	bands := Partition(lat)
	if len(bands) != 5 {
		t.Fatalf("got %d bands", len(bands))
	}
	seen := map[int]bool{}
	total := 0
	for bi, b := range bands {
		total += len(b.Queries)
		for _, q := range b.Queries {
			if seen[q] {
				t.Fatalf("query %d in two bands", q)
			}
			seen[q] = true
		}
		if bi > 0 && len(b.Queries) > 0 && len(bands[bi-1].Queries) > 0 &&
			b.Lo < bands[bi-1].Hi {
			t.Fatalf("band %s overlaps previous: lo %v < prev hi %v", b.Label, b.Lo, bands[bi-1].Hi)
		}
	}
	if total != len(lat) {
		t.Fatalf("bands cover %d of %d queries", total, len(lat))
	}
	// With n=2000 uniform latencies the band populations are exact.
	wants := []int{1000, 800, 180, 18, 2}
	for i, w := range wants {
		if len(bands[i].Queries) != w {
			t.Fatalf("band %s has %d queries, want %d", bands[i].Label, len(bands[i].Queries), w)
		}
	}
}

func TestViolations(t *testing.T) {
	lat := []des.Time{des.Millisecond, 2 * des.Millisecond, 5 * des.Millisecond}
	if got := Violations(lat, 2*des.Millisecond); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	if got := Violations(lat, 0); got != 3 {
		t.Fatalf("violations = %d, want 3", got)
	}
}

// TestArrivalStreamGolden pins every arrival each process draws, so a
// change to the substream generator that moved any draw fails here.
func TestArrivalStreamGolden(t *testing.T) {
	cases := []struct {
		name   string
		tenant Tenant
		want   uint64
	}{
		{"poisson", Tenant{Name: "p", Rate: 40, Process: Poisson}, 0xf8287ec7bee27e5f},
		{"bursty", Tenant{Name: "b", Rate: 30, Process: Bursty, BurstFactor: 8, BurstFrac: 0.1, BurstDwell: des.Second}, 0xbb2275ac5a8f8853},
		{"diurnal", Tenant{Name: "d", Rate: 30, Process: Diurnal, Period: 5 * des.Second, Amplitude: 0.8}, 0x1d4b6d7d8f54a3df},
	}
	for _, c := range cases {
		p := Plan{Seed: 77, Horizon: 20 * des.Second, Tenants: []Tenant{c.tenant}}
		arr, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, a := range arr {
			binary.LittleEndian.PutUint64(buf[:], uint64(a.At))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d arrivals, hash = %#x, want %#x", c.name, len(arr), got, c.want)
		}
	}
}
