package tpwj_test

import (
	"fmt"
	"testing"

	"repro/internal/tpwj"
)

// coldShape is the benchmark's query_cold document shape at the given
// number of sections (four nodes each).
func coldShape(sections int) sectionShape {
	return sectionShape{Sections: sections, Events: 16, SCond: 0.5, TLits: 1, Vocab: 64, Words: 2}
}

// TestMatchAllocsIndependentOfSize pins the work budget of a point
// query: flattening is a fixed number of slices and the matcher
// allocates nothing per candidate, so an eightfold larger document
// costs the same number of allocations.
func TestMatchAllocsIndependentOfSize(t *testing.T) {
	q := tpwj.MustParseQuery("A(S(K=s17, T $x))")
	allocs := func(sections int) float64 {
		ft := sectionDoc(1, coldShape(sections))
		return testing.AllocsPerRun(20, func() {
			answers, err := tpwj.EvalFuzzySymbolic(q, ft)
			if err != nil || len(answers) != 1 {
				t.Fatalf("%d sections: %d answers, %v", sections, len(answers), err)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	if d := large - small; d < -8 || d > 8 {
		t.Errorf("allocations per query: %v on 64 sections, %v on 512; want within 8 of each other", small, large)
	}
}

// BenchmarkEvalFuzzy measures a whole exact evaluation — flatten, match,
// conditions, probabilities — for the benchmark's point, descendant and
// join templates on 10^2..10^4-node documents.
func BenchmarkEvalFuzzy(b *testing.B) {
	queries := []struct{ name, query string }{
		{"point", "A(S(K=s17, T $x))"},
		{"desc", "A(//C=c1 $x)"},
		{"join", "A(S(K=s17, C $x), S(C $y, T $t)) where $x = $y"},
	}
	sizes := []struct {
		name     string
		sections int
	}{{"n100", 25}, {"n1k", 250}, {"n10k", 2500}}
	for _, bq := range queries {
		q := tpwj.MustParseQuery(bq.query)
		for _, size := range sizes {
			ft := sectionDoc(1, coldShape(size.sections))
			b.Run(fmt.Sprintf("%s/%s", bq.name, size.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tpwj.EvalFuzzy(q, ft); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
