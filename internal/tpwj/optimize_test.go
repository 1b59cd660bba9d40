package tpwj

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// bigDoc builds a skewed document: many B leaves, few C leaves.
func bigDoc() *tree.Node {
	root := tree.New("A")
	for i := 0; i < 50; i++ {
		root.Add(tree.New("S", tree.NewLeaf("B", "x")))
	}
	root.Add(tree.New("S", tree.NewLeaf("C", "y")))
	return root
}

func TestOptimizeReordersBySelectivity(t *testing.T) {
	doc := bigDoc()
	ix := tree.NewIndex(doc)
	q := MustParseQuery("A(//B $b, //C $c)")
	opt := Optimize(q, ix)
	// C is rarer than B, so the C branch should come first.
	if opt.Root.Children[0].Label != "C" {
		t.Errorf("optimizer did not put rare label first: %s", FormatQuery(opt))
	}
	// The original query must be untouched.
	if q.Root.Children[0].Label != "B" {
		t.Error("Optimize mutated its input")
	}
}

func TestOptimizePreservesAnswers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDocForOpt(r)
		ix := tree.NewIndex(doc)
		queries := []string{
			"*(//B $x, //C $y)",
			"A(//C $x, B $y)",
			"//S $s(B, !C)",
			"*(//B $x, //C $y) where $x = $y",
		}
		q := MustParseQuery(queries[r.Intn(len(queries))])
		opt := Optimize(q, ix)

		a1, err1 := Eval(q, doc, MinimalSubtree)
		a2, err2 := Eval(opt, doc, MinimalSubtree)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(a1) != len(a2) {
			t.Logf("seed %d: answer counts differ %d vs %d", seed, len(a1), len(a2))
			return false
		}
		c1 := canonicals(a1)
		c2 := canonicals(a2)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Logf("seed %d: answers differ", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func canonicals(ts []*tree.Node) []string {
	out := make([]string, len(ts))
	for i, n := range ts {
		out[i] = tree.Canonical(n)
	}
	sort.Strings(out)
	return out
}

func randomDocForOpt(r *rand.Rand) *tree.Node {
	root := tree.New("A")
	labels := []string{"S", "B", "C", "D"}
	values := []string{"x", "y", ""}
	n := 5 + r.Intn(30)
	nodes := []*tree.Node{root}
	for i := 0; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		parent.Value = ""
		child := tree.NewLeaf(labels[r.Intn(len(labels))], values[r.Intn(len(values))])
		parent.Add(child)
		nodes = append(nodes, child)
	}
	return root
}

func TestOptimizeKeepsOrderedQueries(t *testing.T) {
	doc := bigDoc()
	ix := tree.NewIndex(doc)
	q := MustParseQuery("ordered A(//B $b, //C $c)")
	opt := Optimize(q, ix)
	if opt.Root.Children[0].Label != "B" {
		t.Error("ordered query children reordered (changes semantics)")
	}
}

func TestOptimizeForbiddenLast(t *testing.T) {
	doc := bigDoc()
	ix := tree.NewIndex(doc)
	q := MustParseQuery("A(!//C, //B $b)")
	opt := Optimize(q, ix)
	last := opt.Root.Children[len(opt.Root.Children)-1]
	if !last.Forbidden {
		t.Errorf("forbidden filter should sort last: %s", FormatQuery(opt))
	}
}

// TestLabelIndexedDescendantsAgreeWithWalk pins the matcher's two
// descendant strategies against each other: a step with a label test
// reads the label's id list clipped to the anchor's subtree range, a
// wildcard scans the range; both must find the same nodes, and the list
// must be clipped on both sides when the anchor is not the root.
func TestLabelIndexedDescendantsAgreeWithWalk(t *testing.T) {
	doc := bigDoc()
	viaLabel, err := CountMatches(MustParseQuery("A(//C $x)"), doc)
	if err != nil {
		t.Fatal(err)
	}
	viaWalk, err := CountMatches(MustParseQuery(`A(//*="y" $x)`), doc)
	if err != nil {
		t.Fatal(err)
	}
	if viaLabel != 1 || viaWalk != 1 {
		t.Errorf("counts: label=%d walk=%d, want 1 and 1", viaLabel, viaWalk)
	}

	// C nodes before, inside, between and after the S subtrees.
	doc = tree.MustParse("A(C:c, S(C:c, D(C:c)), C:c, S(D), S(C:c), C:c)")
	for _, c := range []struct {
		query string
		want  int
	}{
		{"A(S(//C $x))", 3},
		{`A(S(//*="c" $x))`, 3},
		{"A(//C $x)", 6},
		{"//S(//C $x)", 3},
		{"A(S(D(//C $x)))", 1},
		{"ordered A(S(//C $x, //C $y))", 1},
		{"A(S(//C $x), !//E)", 3},
		{"A(S $s(!//C))", 1},
	} {
		got, err := CountMatches(MustParseQuery(c.query), doc)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: %d valuations, want %d", c.query, got, c.want)
		}
	}
}
