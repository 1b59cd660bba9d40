package tpwj

// Tests for the two extensions from the paper's perspectives slide:
// negation (forbidden sub-patterns) and limited order.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tree"
)

func TestNegationParseFormat(t *testing.T) {
	q := MustParseQuery("//A $x(B, !//C)")
	if !q.HasNegation() {
		t.Fatal("negation not detected")
	}
	c := q.Root.Children[1]
	if !c.Forbidden || !c.Desc || c.Label != "C" {
		t.Errorf("forbidden child = %+v", c)
	}
	out := FormatQuery(q)
	q2, err := ParseQuery(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if FormatQuery(q2) != out {
		t.Errorf("round trip unstable: %q -> %q", out, FormatQuery(q2))
	}
}

func TestNegationValidation(t *testing.T) {
	cases := []string{
		"!A",          // forbidden root
		"A(!B $x)",    // variable on forbidden node
		"A(!B(C $x))", // variable inside forbidden subtree
		"A(!B(!C))",   // nested negation
	}
	for _, s := range cases {
		if _, err := ParseQuery(s); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", s)
		}
	}
}

func TestNegationPlainMatching(t *testing.T) {
	// A nodes with a B child but no C child.
	q := MustParseQuery("//A $x(B, !C)")
	doc := tree.MustParse("R(A(B), A(B, C), A(C), A(B, D))")
	n, err := CountMatches(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // first and last A
		t.Errorf("matches = %d, want 2", n)
	}
}

func TestNegationDescendantScope(t *testing.T) {
	// No C anywhere below, not just among children.
	q := MustParseQuery("//A $x(!//C)")
	doc := tree.MustParse("R(A(B(C)), A(B))")
	n, err := CountMatches(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("matches = %d, want 1", n)
	}
}

func TestNegationWithStructureInside(t *testing.T) {
	// Forbidden subtree with its own structure: no B having both C and D.
	q := MustParseQuery("A $x(!B(C, D))")
	yes := tree.MustParse("A(B(C))")
	no := tree.MustParse("A(B(C, D))")
	if n, _ := CountMatches(q, yes); n != 1 {
		t.Error("should match when forbidden shape absent")
	}
	if n, _ := CountMatches(q, no); n != 0 {
		t.Error("should not match when forbidden shape present")
	}
}

func TestNegationFuzzyProbability(t *testing.T) {
	// B exists with P=0.8; answer "A without B" has probability 0.2.
	ft := fuzzy.MustParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.8})
	q := MustParseQuery("A $x(!B)")
	answers, err := EvalFuzzy(q, ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("answers = %d", len(answers))
	}
	if math.Abs(answers[0].P-0.2) > 1e-12 {
		t.Errorf("P = %v, want 0.2", answers[0].P)
	}
	if answers[0].Cond != nil {
		t.Error("negated answers should carry a formula, not a DNF")
	}
	if answers[0].Formula == nil {
		t.Error("missing formula")
	}
}

func TestNegationFuzzyMixed(t *testing.T) {
	// Answer requires C present and B absent: P(w2) · P(¬w1) with
	// independent events.
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	q := MustParseQuery("A $x(C, !B)")
	answers, err := EvalFuzzy(q, ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("answers = %d", len(answers))
	}
	want := 0.7 * 0.2
	if math.Abs(answers[0].P-want) > 1e-12 {
		t.Errorf("P = %v, want %v", answers[0].P, want)
	}
}

// TestNegationCommutation extends the commutation theorem to the
// negation extension: evaluating a negated query on the fuzzy tree
// agrees with evaluating it in every possible world.
func TestNegationCommutation(t *testing.T) {
	queries := []*Query{
		MustParseQuery("* $x(!B)"),
		MustParseQuery("* $x(B, !C)"),
		MustParseQuery("* $x(!//C)"),
		MustParseQuery("*(* $x(!*))"),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := randomFuzzyTree(r, 3, 3)
		q := queries[r.Intn(len(queries))]

		direct, err := EvalFuzzy(q, ft)
		if err != nil {
			t.Log(err)
			return false
		}
		pw, err := ft.Expand()
		if err != nil {
			t.Log(err)
			return false
		}
		viaWorlds, err := EvalWorlds(q, pw, MinimalSubtree)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(direct) != viaWorlds.Len() {
			t.Logf("seed %d q=%s: count fuzzy=%d worlds=%d doc=%s",
				seed, FormatQuery(q), len(direct), viaWorlds.Len(), fuzzy.Format(ft.Root))
			return false
		}
		for _, a := range direct {
			if math.Abs(a.P-viaWorlds.ProbOf(a.Tree)) > 1e-9 {
				t.Logf("seed %d q=%s: P(%s) fuzzy=%v worlds=%v",
					seed, FormatQuery(q), tree.Format(a.Tree), a.P, viaWorlds.ProbOf(a.Tree))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNegationMonteCarlo(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	q := MustParseQuery("A $x(C, !B)")
	exact, err := EvalFuzzy(q, ft)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := EvalFuzzyMonteCarlo(q, ft, 100000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(approx) {
		t.Fatalf("answer counts differ")
	}
	if math.Abs(exact[0].P-approx[0].P) > 0.01 {
		t.Errorf("exact %v vs estimate %v", exact[0].P, approx[0].P)
	}
}

func TestOrderedParseFormat(t *testing.T) {
	q := MustParseQuery("ordered A(B, C)")
	if !q.Ordered {
		t.Fatal("ordered flag not set")
	}
	out := FormatQuery(q)
	q2, err := ParseQuery(out)
	if err != nil || !q2.Ordered {
		t.Errorf("round trip lost ordering: %q, %v", out, err)
	}
}

func TestOrderedMatching(t *testing.T) {
	// Unordered: both (B,C) and (C,B) sibling orders match.
	doc1 := tree.MustParse("A(B, C)")
	doc2 := tree.MustParse("A(C, B)")
	plain := MustParseQuery("A(B, C)")
	ordered := MustParseQuery("ordered A(B, C)")

	for _, d := range []*tree.Node{doc1, doc2} {
		if n, _ := CountMatches(plain, d); n != 1 {
			t.Errorf("plain matches on %s = %d", tree.Format(d), n)
		}
	}
	if n, _ := CountMatches(ordered, doc1); n != 1 {
		t.Error("ordered should match B-before-C document")
	}
	if n, _ := CountMatches(ordered, doc2); n != 0 {
		t.Error("ordered should not match C-before-B document")
	}
}

func TestOrderedStrict(t *testing.T) {
	// The same node cannot serve two ordered siblings.
	q := MustParseQuery("ordered A(B $x, B $y)")
	doc := tree.MustParse("A(B)")
	if n, _ := CountMatches(q, doc); n != 0 {
		t.Error("strict order should forbid reusing one node")
	}
	doc2 := tree.MustParse("A(B, B)")
	if n, _ := CountMatches(q, doc2); n != 1 {
		t.Error("exactly one ordered assignment expected")
	}
}

func TestOrderedWithDescendants(t *testing.T) {
	q := MustParseQuery("ordered A(//X $x, //Y $y)")
	doc := tree.MustParse("A(B(X), C(Y))")
	if n, _ := CountMatches(q, doc); n != 1 {
		t.Error("ordered descendant match expected")
	}
	docRev := tree.MustParse("A(B(Y), C(X))")
	if n, _ := CountMatches(q, docRev); n != 0 {
		t.Error("reversed document order should not match")
	}
}

func TestOrderedFuzzyEvaluation(t *testing.T) {
	// Ordered queries work on the fuzzy representation directly (the
	// stored child order of the underlying tree is used).
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	q := MustParseQuery("ordered A(B $x, C $y)")
	answers, err := EvalFuzzy(q, ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || math.Abs(answers[0].P-0.56) > 1e-12 {
		t.Errorf("answers = %v", answers)
	}
	qRev := MustParseQuery("ordered A(C $y, B $x)")
	answersRev, err := EvalFuzzy(qRev, ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(answersRev) != 0 {
		t.Errorf("reversed ordered query matched: %v", answersRev)
	}
}
