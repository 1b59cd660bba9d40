package update

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/worlds"
)

// TestGoldenSlide15 reproduces the conditional-replacement example of
// slide 15 (E6) literally: on A(B[w1], C[w2]) with w1=0.8, w2=0.7,
// replacing C by D if B is present with confidence 0.9 (event w3) yields
//
//	A( B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3] )
func TestGoldenSlide15(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	q := tpwj.MustParseQuery("A $a(B $b, C $c)")
	tx := New(q, 0.9, Insert("a", tree.MustParse("D")), Delete("c"))
	tx.ConfEvent = "w3"

	got, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	want := fuzzy.MustParse("A(B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3])")
	if !fuzzy.Equal(got.Root, want) {
		t.Errorf("result:\n  got  %s\n  want %s", fuzzy.Format(got.Root), fuzzy.Format(want))
	}
	if p, ok := got.Table.Prob("w3"); !ok || p != 0.9 {
		t.Errorf("w3 probability = %v, %v", p, ok)
	}
	if stats.Valuations != 1 || stats.Inserted != 1 || stats.Copies != 2 {
		t.Errorf("stats = %+v", stats)
	}
	// The input must be untouched.
	if !fuzzy.Equal(ft.Root, fuzzy.MustParse("A(B[w1], C[w2])")) {
		t.Error("ApplyFuzzy mutated its input")
	}
	if ft.Table.Has("w3") {
		t.Error("ApplyFuzzy mutated the input table")
	}
}

// TestSlide15Semantics checks the possible-worlds meaning of the slide-15
// result against the paper's update semantics applied to the expansion.
func TestSlide15Semantics(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	q := tpwj.MustParseQuery("A $a(B $b, C $c)")
	tx := New(q, 0.9, Insert("a", tree.MustParse("D")), Delete("c"))

	fuzzyResult, _, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	viaFuzzy, err := fuzzyResult.Expand()
	if err != nil {
		t.Fatal(err)
	}

	pw, err := ft.Expand()
	if err != nil {
		t.Fatal(err)
	}
	viaWorlds, err := tx.ApplyWorlds(pw)
	if err != nil {
		t.Fatal(err)
	}
	if !viaFuzzy.Equal(viaWorlds, 1e-9) {
		t.Errorf("commutation failed:\nfuzzy:\n%s\nworlds:\n%s", viaFuzzy, viaWorlds)
	}
}

func TestApplyFuzzyInsertConditions(t *testing.T) {
	// Insertion under a conditioned target: the residual drops the
	// target's own path literals.
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	tx := New(tpwj.MustParseQuery("A(B $x)"), 0.5, Insert("x", tree.MustParse("N")))
	tx.ConfEvent = "u"
	got, _, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	// N's condition must be just "u": w1 is implied by B's existence.
	want := fuzzy.MustParse("A(B[w1](N[u]))")
	if !fuzzy.Equal(got.Root, want) {
		t.Errorf("result = %s", fuzzy.Format(got.Root))
	}
}

func TestApplyFuzzyCertainUpdateNoEvent(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	tx := New(tpwj.MustParseQuery("A $a(B $b)"), 1, Insert("a", tree.MustParse("N")))
	got, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Event != "" {
		t.Errorf("certain update should mint no event, got %q", stats.Event)
	}
	// N requires w1 (the match needs B).
	want := fuzzy.MustParse("A(B[w1], N[w1])")
	if !fuzzy.Equal(got.Root, want) {
		t.Errorf("result = %s", fuzzy.Format(got.Root))
	}
}

func TestApplyFuzzyCertainDeleteRemovesOutright(t *testing.T) {
	// Deleting B with confidence 1 where the only condition is B's own
	// path: residual is empty, node removed without copies.
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	tx := New(tpwj.MustParseQuery("A(B $x)"), 1, Delete("x"))
	got, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeletedOutright != 1 || stats.Copies != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if !fuzzy.Equal(got.Root, fuzzy.MustParse("A")) {
		t.Errorf("result = %s", fuzzy.Format(got.Root))
	}
}

func TestApplyFuzzyNotSelected(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	tx := New(tpwj.MustParseQuery("A(Z $x)"), 0.5, Delete("x"))
	got, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valuations != 0 || stats.Event != "" {
		t.Errorf("stats = %+v", stats)
	}
	if !fuzzy.Equal(got.Root, ft.Root) {
		t.Error("unselected tree changed")
	}
}

func TestApplyFuzzySkipsContradictoryValuations(t *testing.T) {
	// The valuation pairing B[w1] with C[!w1] can exist in no world.
	ft := fuzzy.MustParseTree("A(B[w1], C[!w1])", map[event.ID]float64{"w1": 0.8})
	tx := New(tpwj.MustParseQuery("A(B $b, C $c)"), 0.5, Delete("c"))
	got, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valuations != 0 {
		t.Errorf("contradictory valuation counted: %+v", stats)
	}
	if !fuzzy.Equal(got.Root, ft.Root) {
		t.Error("tree changed")
	}
}

func TestApplyFuzzyErrors(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	// Root deletion.
	txRoot := New(tpwj.MustParseQuery("A $x"), 0.5, Delete("x"))
	if _, _, err := txRoot.ApplyFuzzy(ft); err == nil {
		t.Error("root deletion accepted")
	}
	// Insert under value leaf.
	ftLeaf := fuzzy.MustParseTree("A(B:val)", nil)
	txLeaf := New(tpwj.MustParseQuery("A(B $x)"), 0.5, Insert("x", tree.MustParse("N")))
	if _, _, err := txLeaf.ApplyFuzzy(ftLeaf); err == nil {
		t.Error("insert under value leaf accepted")
	}
	// Taken confidence-event name.
	txTaken := New(tpwj.MustParseQuery("A(B $x)"), 0.5, Insert("x", tree.MustParse("N")))
	txTaken.ConfEvent = "w1"
	if _, _, err := txTaken.ApplyFuzzy(ft); err == nil {
		t.Error("taken confidence event name accepted")
	}
	// Invalid fuzzy tree.
	bad := fuzzy.New(fuzzy.MustParse("A(B[zz])"))
	txOK := New(tpwj.MustParseQuery("A(B $x)"), 0.5, Delete("x"))
	if _, _, err := txOK.ApplyFuzzy(bad); err == nil {
		t.Error("invalid fuzzy tree accepted")
	}
	// An invalid transaction on an invalid tree: the transaction is
	// checked first (O(transaction), before the O(document) flatten).
	txBad := New(tpwj.MustParseQuery("A(B $x)"), 1.5, Delete("x"))
	if _, _, err := txBad.ApplyFuzzy(bad); err == nil || err.Error() != txBad.Validate().Error() {
		t.Errorf("err %v, want the transaction's: %v", err, txBad.Validate())
	}
}

// TestUpdateCommutationRandom is the property form of the update theorem
// (slide 14, E4): for random fuzzy trees and random transactions,
// expand-then-ApplyWorlds equals ApplyFuzzy-then-expand.
func TestUpdateCommutationRandom(t *testing.T) {
	queries := []string{
		"*(//B $x)",
		"A(* $x)",
		"*(B $x, //C $y)",
		"* $x(//* $y)",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := randomFuzzyTree(r, 3, 3)
		q := tpwj.MustParseQuery(queries[r.Intn(len(queries))])
		conf := []float64{0.5, 0.9, 1.0}[r.Intn(3)]

		var ops []Op
		vars := q.VarNames()
		for _, v := range vars {
			switch r.Intn(3) {
			case 0:
				ops = append(ops, Insert(v, tree.MustParse("N:new")))
			case 1:
				ops = append(ops, Delete(v))
			}
		}
		if len(ops) == 0 {
			ops = append(ops, Insert(vars[0], tree.MustParse("N:new")))
		}
		tx := New(q, conf, ops...)

		fuzzyResult, _, err := tx.ApplyFuzzy(ft)
		if err != nil {
			// Root deletion and mixed-content errors must also occur on
			// the worlds side for consistency; skip those seeds.
			pw, eerr := ft.Expand()
			if eerr != nil {
				return true
			}
			if _, werr := tx.ApplyWorlds(pw); werr == nil {
				// Error only when some world is selected; if no world
				// was selected the worlds path never exercises τ.
				sel := false
				for _, w := range pw.Worlds {
					if ok, _ := tpwj.Selects(q, w.Tree); ok {
						sel = true
						break
					}
				}
				if sel {
					t.Logf("seed %d: fuzzy errored (%v) but worlds did not", seed, err)
					return false
				}
			}
			return true
		}
		viaFuzzy, err := fuzzyResult.Expand()
		if err != nil {
			t.Log(err)
			return false
		}

		pw, err := ft.Expand()
		if err != nil {
			t.Log(err)
			return false
		}
		viaWorlds, err := tx.ApplyWorlds(pw)
		if err != nil {
			t.Log(err)
			return false
		}
		if !viaFuzzy.Equal(viaWorlds, 1e-9) {
			t.Logf("seed %d: commutation failed\ndoc: %s\ntx: %s\nfuzzy:\n%s\nworlds:\n%s",
				seed, fuzzy.Format(ft.Root), tx, viaFuzzy, viaWorlds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randomFuzzyTree mirrors the generator used in the fuzzy and tpwj tests.
func randomFuzzyTree(r *rand.Rand, depth, nEvents int) *fuzzy.Tree {
	tab := event.NewTable()
	var ids []event.ID
	for i := 0; i < nEvents; i++ {
		id := event.ID(string(rune('a' + i)))
		tab.MustSet(id, 0.1+0.8*r.Float64())
		ids = append(ids, id)
	}
	randCond := func() event.Condition {
		var c event.Condition
		for _, id := range ids {
			switch r.Intn(4) {
			case 0:
				c = append(c, event.Pos(id))
			case 1:
				c = append(c, event.Neg(id))
			}
		}
		return c.Normalize()
	}
	labels := []string{"A", "B", "C"}
	var build func(d int) *fuzzy.Node
	build = func(d int) *fuzzy.Node {
		n := &fuzzy.Node{Label: labels[r.Intn(len(labels))], Cond: randCond()}
		if d <= 0 || r.Intn(3) == 0 {
			return n
		}
		k := r.Intn(3)
		for i := 0; i < k; i++ {
			n.Children = append(n.Children, build(d-1))
		}
		return n
	}
	root := build(depth)
	root.Cond = nil
	return &fuzzy.Tree{Root: root, Table: tab}
}

// TestDeletionGrowthDependent demonstrates the exponential blow-up of
// slide 14 (E5): repeated deletions guarded by overlapping conditions
// multiply the number of conditioned copies.
func TestDeletionGrowthDependent(t *testing.T) {
	// Document with one victim V and k guard nodes G, every deletion
	// conditioned on a different guard.
	probs := map[event.ID]float64{"g1": 0.5, "g2": 0.5, "g3": 0.5}
	ft := fuzzy.MustParseTree("A(V[v], G1[g1], G2[g2], G3[g3])",
		mergeProbs(probs, map[event.ID]float64{"v": 0.5}))

	sizes := []int{ft.Size()}
	cur := ft
	for i, guard := range []string{"G1", "G2", "G3"} {
		q := tpwj.MustParseQuery("A(" + guard + " $g, //V $x)")
		tx := New(q, 0.9, Delete("x"))
		next, _, err := tx.ApplyFuzzy(cur)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cur = next
		sizes = append(sizes, cur.Size())
	}
	// Each dependent deletion multiplies the V-copies; the tree must
	// grow strictly and super-linearly.
	if !(sizes[1] < sizes[2] && sizes[2] < sizes[3]) {
		t.Errorf("sizes not growing: %v", sizes)
	}
	growth1 := sizes[2] - sizes[1]
	growth2 := sizes[3] - sizes[2]
	if growth2 <= growth1 {
		t.Errorf("growth not accelerating (exponential expected): %v", sizes)
	}
	// Semantics must still commute after the whole sequence.
	viaFuzzy, err := cur.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !viaFuzzy.IsDistribution(worlds.Eps) {
		t.Error("expansion is not a distribution")
	}
}

func mergeProbs(a, b map[event.ID]float64) map[event.ID]float64 {
	out := make(map[event.ID]float64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// TestDeletionNoGrowthIndependent contrasts E5: deletions whose match
// condition is implied by the victim's own path cause no copying at all.
func TestDeletionNoGrowthIndependent(t *testing.T) {
	ft := fuzzy.MustParseTree("A(V1[v1], V2[v2], V3[v3])",
		map[event.ID]float64{"v1": 0.5, "v2": 0.5, "v3": 0.5})
	cur := ft
	for _, victim := range []string{"V1", "V2", "V3"} {
		tx := New(tpwj.MustParseQuery("A("+victim+" $x)"), 0.9, Delete("x"))
		next, stats, err := tx.ApplyFuzzy(cur)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Copies != 1 {
			t.Errorf("delete of %s: copies = %d, want 1 (single ¬u copy)", victim, stats.Copies)
		}
		cur = next
	}
	if cur.Size() != ft.Size() {
		t.Errorf("independent deletions should not grow the tree: %d -> %d", ft.Size(), cur.Size())
	}
}

func TestApplyFuzzyMultipleMatchesSameTarget(t *testing.T) {
	// Two guards make two valuations deleting the same victim; the
	// survivor requires both deletions to have missed.
	ft := fuzzy.MustParseTree("A(V, G[g1], G[g2])",
		map[event.ID]float64{"g1": 0.5, "g2": 0.5})
	tx := New(tpwj.MustParseQuery("A(G $g, V $x)"), 0.5, Delete("x"))
	got, _, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	// Commutation is the safest check of this intricate case.
	viaFuzzy, err := got.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pw, _ := ft.Expand()
	viaWorlds, err := tx.ApplyWorlds(pw)
	if err != nil {
		t.Fatal(err)
	}
	if !viaFuzzy.Equal(viaWorlds, 1e-9) {
		t.Errorf("commutation failed:\nfuzzy:\n%s\nworlds:\n%s", viaFuzzy, viaWorlds)
	}
}

func TestApplyWorldsSemantics(t *testing.T) {
	s := &worlds.Set{}
	s.Add(tree.MustParse("A(B)"), 0.6)
	s.Add(tree.MustParse("A(C)"), 0.4)
	tx := New(tpwj.MustParseQuery("A(B $x)"), 0.5, Delete("x"))
	got, err := tx.ApplyWorlds(s)
	if err != nil {
		t.Fatal(err)
	}
	// Selected world A(B) splits into A() with 0.3 and A(B) with 0.3;
	// A(C) unchanged with 0.4.
	if p := got.ProbOf(tree.MustParse("A")); p != 0.3 {
		t.Errorf("P(A) = %v, want 0.3", p)
	}
	if p := got.ProbOf(tree.MustParse("A(B)")); p != 0.3 {
		t.Errorf("P(A(B)) = %v, want 0.3", p)
	}
	if p := got.ProbOf(tree.MustParse("A(C)")); p != 0.4 {
		t.Errorf("P(A(C)) = %v, want 0.4", p)
	}
	if !got.IsDistribution(worlds.Eps) {
		t.Error("result is not a distribution")
	}
}

func TestApplyWorldsPreservesTotalProbability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := randomFuzzyTree(r, 3, 2)
		pw, err := ft.Expand()
		if err != nil {
			return true
		}
		tx := New(tpwj.MustParseQuery("*(//* $x)"), 0.7, Insert("x", tree.MustParse("N")))
		got, err := tx.ApplyWorlds(pw)
		if err != nil {
			return true // e.g. insert under value leaf
		}
		return got.IsDistribution(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
