package exp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/view"
)

// viewBenchDoc builds the view-maintenance workload document: m
// sections, each holding one distinct L value witnessed under k
// differently-conditioned G nodes (lits literals each, over a
// per-section pool of ev events). The view "A(S(G(L $x)))" then has m
// answers whose condition DNFs have k lits-literal clauses over up to
// ev events — condition structure heavy enough that exact probability
// computation dominates matching, i.e. the workload where materialized
// views earn their keep.
func viewBenchDoc(m, k, lits, ev int) *fuzzy.Tree {
	root := fuzzy.NewNode("A")
	tab := event.NewTable()
	r := rand.New(rand.NewSource(42))
	for i := 1; i <= m; i++ {
		ids := make([]event.ID, ev)
		for j := range ids {
			id, err := tab.Fresh("e", 0.2+0.6*r.Float64())
			if err != nil {
				panic(err)
			}
			ids[j] = id
		}
		sec := fuzzy.NewNode("S")
		for w := 0; w < k; w++ {
			var c event.Condition
			for l := 0; l < lits; l++ {
				c = append(c, event.Literal{Event: ids[r.Intn(ev)], Neg: r.Intn(2) == 0})
			}
			sec.Add(fuzzy.NewNode("G",
				fuzzy.NewLeaf("L", fmt.Sprintf("v%d", i)),
			).WithCond(c))
		}
		root.Add(sec)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// viewMaintenanceInstance builds the view-maintenance workload: a view
// over viewBenchDoc(m, 14, 6, 60), materialized, plus the post-state
// of one update and its footprint. With touching, the update inserts a
// fresh G(L) witness under one section — affecting one of the m
// answers, the shape where incremental maintenance should beat
// recomputing all m answer probabilities. Without, it inserts an
// unrelated label, which the overlap analysis proves harmless (the
// skip tier).
func viewMaintenanceInstance(m int, touching bool) (*view.View, *fuzzy.Tree, *view.Delta) {
	ft := viewBenchDoc(m, 14, 6, 60)
	def := view.Definition{Name: "bench", Query: "A(S(G(L $x)))"}
	q, err := def.Compile()
	if err != nil {
		panic(err)
	}
	v, err := view.Materialize(def, q, ft)
	if err != nil {
		panic(err)
	}
	var tx *update.Transaction
	if touching {
		tx = update.New(tpwj.MustParseQuery("A(S $s(G(L=v1)))"), 0.9,
			update.Insert("s", tree.MustParse("G(L:extra)")))
	} else {
		tx = update.New(tpwj.MustParseQuery("A $a"), 0.9,
			update.Insert("a", tree.MustParse("Z:zed")))
	}
	next, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		panic(err)
	}
	return v, next, &view.Delta{
		InsertedLabels:    stats.InsertedLabels,
		DeleteTargetPaths: stats.DeleteTargetPaths,
	}
}

// BenchmarkViewMaintain measures the three maintenance tiers on the
// 32-section instance: an unrelated update the overlap analysis skips,
// a touching update maintained incrementally, and recomputing the view
// from scratch on the touching update's post-state.
func BenchmarkViewMaintain(b *testing.B) {
	maintain := func(touching bool) func(b *testing.B) {
		return func(b *testing.B) {
			v, next, d := viewMaintenanceInstance(32, touching)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Maintain(next, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("skip", maintain(false))
	b.Run("incremental", maintain(true))
	b.Run("recompute", func(b *testing.B) {
		v, next, _ := viewMaintenanceInstance(32, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := view.Materialize(v.Def(), v.Query(), next); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestViewMaintenanceInstance pins the mechanics behind
// BenchmarkViewMaintain: the touching update takes the incremental tier and
// affects exactly one of the 32 answers, the unrelated update is
// skipped outright, and both end states equal recompute-from-scratch.
func TestViewMaintenanceInstance(t *testing.T) {
	v, next, d := viewMaintenanceInstance(32, true)
	nv, res, err := v.Maintain(next, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != view.Incremental {
		t.Fatalf("touching update: outcome %v, want Incremental", res.Outcome)
	}
	if res.Recomputed != 1 || res.Reused != 32 {
		t.Errorf("touching update: recomputed=%d reused=%d, want 1/32", res.Recomputed, res.Reused)
	}
	fresh, err := view.Materialize(v.Def(), v.Query(), next)
	if err != nil {
		t.Fatal(err)
	}
	got, want := nv.Answers(), fresh.Answers()
	if len(got) != len(want) {
		t.Fatalf("maintained %d answers, recompute %d", len(got), len(want))
	}
	for i := range want {
		if tree.Canonical(got[i].Tree) != tree.Canonical(want[i].Tree) ||
			math.Abs(got[i].P-want[i].P) > 1e-9 {
			t.Fatalf("answer %d differs: %v vs %v", i, got[i], want[i])
		}
	}

	v, next, d = viewMaintenanceInstance(32, false)
	if _, res, err = v.Maintain(next, d); err != nil {
		t.Fatal(err)
	}
	if res.Outcome != view.Skipped {
		t.Fatalf("unrelated update: outcome %v, want Skipped", res.Outcome)
	}
}

// TestViewMaintainBeatsRecompute pins the acceptance property behind
// the benchmark: on an update affecting one answer in 32, incremental
// maintenance must beat recomputing every answer probability from
// scratch.
func TestViewMaintainBeatsRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	v, next, d := viewMaintenanceInstance(32, true)
	timeIt := func(f func()) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return r.NsPerOp()
	}
	incr := timeIt(func() { v.Maintain(next, d) })                        //nolint:errcheck
	full := timeIt(func() { view.Materialize(v.Def(), v.Query(), next) }) //nolint:errcheck
	if incr >= full {
		t.Errorf("incremental maintenance (%d ns/op) not faster than recompute (%d ns/op)", incr, full)
	}
}
