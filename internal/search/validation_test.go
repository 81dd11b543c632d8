package search

import "testing"

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	mustPanic := func(name string, mutate func(*Spec)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		spec := smallSpec()
		mutate(&spec)
		Generate(spec)
	}
	mustPanic("no queries", func(s *Spec) { s.NumQueries = 0 })
	mustPanic("no fragments", func(s *Spec) { s.NumFragments = 0 })
	mustPanic("inverted result bounds", func(s *Spec) { s.MaxResults = s.MinResults - 1 })
}

func TestMinResultSizeFloored(t *testing.T) {
	spec := smallSpec()
	spec.MinResultSize = 0 // floored to 1
	w := Generate(spec)
	for _, qry := range w.Queries {
		for _, r := range qry.Results {
			if r.Size < 1 {
				t.Fatalf("result size %d", r.Size)
			}
		}
	}
}

func TestFixedResultCount(t *testing.T) {
	spec := smallSpec()
	spec.MinResults = 25
	spec.MaxResults = 25
	w := Generate(spec)
	for q, qry := range w.Queries {
		if len(qry.Results) != 25 {
			t.Fatalf("query %d results = %d, want exactly 25", q, len(qry.Results))
		}
	}
}
