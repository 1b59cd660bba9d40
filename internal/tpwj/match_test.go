package tpwj

import (
	"slices"
	"testing"

	"repro/internal/tree"
)

// doc returns a document used across matcher tests:
//
//	A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))
func doc() *tree.Node {
	return tree.MustParse("A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))")
}

func countMatches(t *testing.T, query string, docText string) int {
	t.Helper()
	q := MustParseQuery(query)
	d := tree.MustParse(docText)
	n, err := CountMatches(q, d)
	if err != nil {
		t.Fatalf("CountMatches(%q): %v", query, err)
	}
	return n
}

func TestMatchRootAnchored(t *testing.T) {
	if n := countMatches(t, "A", "A(B)"); n != 1 {
		t.Errorf("root match count = %d, want 1", n)
	}
	if n := countMatches(t, "B", "A(B)"); n != 0 {
		t.Errorf("non-root label at root = %d, want 0", n)
	}
}

func TestMatchRootAnywhere(t *testing.T) {
	if n := countMatches(t, "//B", "A(B, C(B))"); n != 2 {
		t.Errorf("anywhere match count = %d, want 2", n)
	}
}

func TestMatchChildEdge(t *testing.T) {
	if n := countMatches(t, "A(B)", "A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))"); n != 2 {
		t.Errorf("A(B) = %d, want 2 (two B children)", n)
	}
	if n := countMatches(t, "A(C)", "A(B, E(C))"); n != 0 {
		t.Errorf("child edge should not reach grandchild, got %d", n)
	}
}

func TestMatchDescendantEdge(t *testing.T) {
	if n := countMatches(t, "A(//C)", "A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))"); n != 2 {
		t.Errorf("A(//C) = %d, want 2", n)
	}
	// Descendant axis is strict: the node itself does not match.
	if n := countMatches(t, "A(//A)", "A(B)"); n != 0 {
		t.Errorf("A(//A) = %d, want 0", n)
	}
	if n := countMatches(t, "A(//A)", "A(B(A))"); n != 1 {
		t.Errorf("A(//A) nested = %d, want 1", n)
	}
}

func TestMatchWildcard(t *testing.T) {
	if n := countMatches(t, "A(*)", "A(B, C, D)"); n != 3 {
		t.Errorf("A(*) = %d, want 3", n)
	}
	if n := countMatches(t, "//*", "A(B, C)"); n != 3 {
		t.Errorf("//* = %d, want 3", n)
	}
}

func TestMatchValueTest(t *testing.T) {
	if n := countMatches(t, `A(B="foo")`, "A(B:foo, B:foo, B:other)"); n != 2 {
		t.Errorf("value test = %d, want 2", n)
	}
	// Internal nodes have the empty value.
	if n := countMatches(t, `A(E="")`, "A(E(C))"); n != 1 {
		t.Errorf("empty value on internal node = %d, want 1", n)
	}
}

func TestMatchMultipleChildrenCombinations(t *testing.T) {
	// Two pattern children over two B's and one C: each pattern child
	// picks independently.
	if n := countMatches(t, "A(B, B)", "A(B, B)"); n != 4 {
		t.Errorf("A(B,B) over A(B,B) = %d, want 4 (non-injective valuations)", n)
	}
}

func TestMatchDeepPattern(t *testing.T) {
	if n := countMatches(t, "A(E(C))", "A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))"); n != 1 {
		t.Errorf("A(E(C)) = %d, want 1", n)
	}
	if n := countMatches(t, "A(D(C, F))", "A(B:foo, B:foo, E(C:bar), D(F:nee, C:bar))"); n != 1 {
		t.Errorf("A(D(C,F)) = %d, want 1", n)
	}
}

func TestMatchJoin(t *testing.T) {
	// C:bar appears under both E and D: join on equal values.
	q := MustParseQuery("A(E(C $x), D(C $y)) where $x = $y")
	n, err := CountMatches(q, doc())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("join matches = %d, want 1", n)
	}

	// Join that never holds.
	q2 := MustParseQuery("A(B $x, E(C $y)) where $x = $y")
	n2, err := CountMatches(q2, doc())
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Errorf("failing join matches = %d, want 0", n2)
	}
}

func TestMatchJoinPrunesEarly(t *testing.T) {
	// The join between the two B values holds for all four combinations
	// (both have value foo).
	q := MustParseQuery("A(B $x, B $y) where $x = $y")
	n, err := CountMatches(q, tree.MustParse("A(B:foo, B:foo)"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("matches = %d, want 4", n)
	}
	// Different values: only the diagonal (each with itself).
	n2, err := CountMatches(q, tree.MustParse("A(B:x, B:y)"))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 2 {
		t.Errorf("matches = %d, want 2", n2)
	}
}

func TestValuationsEarlyStop(t *testing.T) {
	q := MustParseQuery("A(B)")
	count := 0
	err := Flatten(tree.MustParse("A(B, B, B)")).Valuations(q, func([]int32) bool {
		count++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("early stop visited %d valuations", count)
	}
}

func TestFindMatchesBindings(t *testing.T) {
	q := MustParseQuery("A(E(C $x))")
	ms, err := findMatches(q, doc())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	n := ms[0]["x"]
	if n == nil || n.Label != "C" || n.Value != "bar" {
		t.Errorf("binding of $x = %v", n)
	}
	if ms[0]["nope"] != nil {
		t.Error("unknown variable should bind nil")
	}
}

func TestSelects(t *testing.T) {
	q := MustParseQuery("A(B)")
	if ok, _ := Selects(q, tree.MustParse("A(B)")); !ok {
		t.Error("should select")
	}
	if ok, _ := Selects(q, tree.MustParse("A(C)")); ok {
		t.Error("should not select")
	}
}

func TestMatchInvalidQuery(t *testing.T) {
	q := NewQuery(NewPNode("A", NewPNode("B").WithVar("x"), NewPNode("C").WithVar("x")))
	if err := Flatten(doc()).Valuations(q, func([]int32) bool { return true }); err == nil {
		t.Error("duplicate variable accepted")
	}
}

// TestMatchCloneIndependence pins Valuations' buffer contract: bound is
// reused between calls, so a retained valuation must be copied, and the
// copies are independent.
func TestMatchCloneIndependence(t *testing.T) {
	q := MustParseQuery("A(B $x)")
	x := int32(q.VarPositions()["x"])
	var saved, aliased [][]int32
	err := Flatten(tree.MustParse("A(B:1, B:2)")).Valuations(q, func(bound []int32) bool {
		saved = append(saved, slices.Clone(bound))
		aliased = append(aliased, bound)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 {
		t.Fatalf("valuations = %d", len(saved))
	}
	if saved[0][x] == saved[1][x] {
		t.Error("copied valuations bind $x to the same node")
	}
	if &aliased[0][0] != &aliased[1][0] {
		t.Error("bound is not reused between calls; the copy above is no longer needed")
	}
}

// match is one valuation as tests inspect it: the source node bound to
// each variable.
type match map[string]*tree.Node

// findMatches collects every valuation of q in the plain document doc.
func findMatches(q *Query, doc *tree.Node) ([]match, error) {
	d := Flatten(doc)
	vars := q.VarPositions()
	var out []match
	err := d.Valuations(q, func(bound []int32) bool {
		m := make(match, len(vars))
		for v, i := range vars {
			m[v] = d.Plain(bound[i])
		}
		out = append(out, m)
		return true
	})
	return out, err
}
