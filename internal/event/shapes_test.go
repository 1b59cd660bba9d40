package event

import (
	"fmt"
	"math/rand"
	"testing"
)

// shapeTable returns a table of n events e0..e<n-1> with seeded
// probabilities in [0.1, 0.9], and their ids.
func shapeTable(r *rand.Rand, n int) (*Table, []ID) {
	tab := NewTable()
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("e%d", i))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	return tab, ids
}

// randomClauses returns n clauses of k distinct events each, drawn from
// ids, every literal negated with probability 1/3.
func randomClauses(r *rand.Rand, ids []ID, n, k int) DNF {
	var d DNF
	for i := 0; i < n; i++ {
		var c Condition
		for _, e := range r.Perm(len(ids))[:k] {
			c = append(c, Literal{Event: ids[e], Neg: r.Intn(3) == 0})
		}
		d = append(d, c)
	}
	return d
}

type probShape struct {
	name  string
	build func() (*Table, DNF)
}

// probShapes are the DNF shapes the work budgets and BenchmarkProbShapes
// run on, each a function of a fixed seed.
var probShapes = []probShape{
	// The answer DNF of the prob_heavy workload: 32 matching sections,
	// each contributing its own positive literal and two title literals
	// (one in three negated), all under one shared literal, 32 events.
	{"sparse3x32", func() (*Table, DNF) {
		r := rand.New(rand.NewSource(1))
		tab, ids := shapeTable(r, 32)
		d := randomClauses(r, ids, 32, 3)
		for i := range d {
			d[i][0].Neg = false
			d[i] = append(d[i], Pos(ids[7]))
		}
		return tab, d
	}},
	// eᵢ eᵢ₊₁ ¬eᵢ₊₂ over 60 events: one long component whose cofactors
	// keep meeting the same suffixes.
	{"chain60", func() (*Table, DNF) {
		tab, ids := shapeTable(rand.New(rand.NewSource(2)), 60)
		var d DNF
		for i := 0; i+2 < len(ids); i++ {
			d = append(d, Cond(Pos(ids[i]), Pos(ids[i+1]), Neg(ids[i+2])))
		}
		return tab, d
	}},
	// Every pair of 18 events.
	{"pairs18", func() (*Table, DNF) {
		tab, ids := shapeTable(rand.New(rand.NewSource(3)), 18)
		var d DNF
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				d = append(d, Cond(Pos(ids[i]), Pos(ids[j])))
			}
		}
		return tab, d
	}},
	// 60 clauses of 6 literals over 20 events.
	{"dense20x60", func() (*Table, DNF) {
		r := rand.New(rand.NewSource(4))
		tab, ids := shapeTable(r, 20)
		return tab, randomClauses(r, ids, 60, 6)
	}},
	// 50 clauses of 3 literals over 40 events.
	{"rand40x50", func() (*Table, DNF) {
		r := rand.New(rand.NewSource(5))
		tab, ids := shapeTable(r, 40)
		return tab, randomClauses(r, ids, 50, 3)
	}},
}

var probSink float64

// BenchmarkProbShapes times exact evaluation of a compiled DNF per
// shape and reports the expansion nodes one evaluation visits.
func BenchmarkProbShapes(b *testing.B) {
	for _, sh := range probShapes {
		b.Run(sh.name, func(b *testing.B) {
			tab, d := sh.build()
			c, err := tab.CompileDNF(d)
			if err != nil {
				b.Fatal(err)
			}
			before := engineExpansionNodes.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probSink = c.Prob()
			}
			b.ReportMetric(float64(engineExpansionNodes.Value()-before)/float64(b.N), "nodes/op")
		})
	}
}
