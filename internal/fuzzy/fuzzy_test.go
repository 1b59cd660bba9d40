package fuzzy

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/tree"
)

// slide12 builds the fuzzy tree of slide 12 of the paper:
//
//	A( B[w1 !w2], C( D[w2] ) )   with w1=0.8, w2=0.7
func slide12() *Tree {
	return MustParseTree("A(B[w1 !w2], C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

// slide9doc builds the fuzzy tree whose expansion is the possible-worlds
// set of slide 9: independent B and D.
//
//	A( B[w1], C( D[w2] ) )   with w1=0.8, w2=0.7
func slide9doc() *Tree {
	return MustParseTree("A(B[w1], C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

func TestBuildFluent(t *testing.T) {
	n := NewNode("A",
		NewLeaf("B", "foo").WithCond(event.MustParseCondition("w1 !w2")),
		NewNode("C", NewLeaf("D", "").WithCond(event.MustParseCondition("w2"))),
	)
	if n.Size() != 4 {
		t.Errorf("Size = %d", n.Size())
	}
	if n.Children[0].Cond.String() != "w1 !w2" {
		t.Errorf("cond = %q", n.Children[0].Cond.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := slide12()
	c := orig.Clone()
	c.Root.Children[0].Cond = nil
	c.Root.Children[0].Label = "Z"
	c.Table.MustSet("w9", 0.5)
	if orig.Root.Children[0].Label == "Z" || orig.Root.Children[0].Cond == nil {
		t.Error("clone shares nodes")
	}
	if orig.Table.Has("w9") {
		t.Error("clone shares table")
	}
}

func TestEventsSorted(t *testing.T) {
	ft := slide12()
	ev := ft.Events()
	if len(ev) != 2 || ev[0] != "w1" || ev[1] != "w2" {
		t.Errorf("Events = %v", ev)
	}
}

func TestValidate(t *testing.T) {
	if err := slide12().Validate(); err != nil {
		t.Errorf("slide-12 tree invalid: %v", err)
	}

	// Root with condition is rejected.
	bad := New(MustParse("A[w1]"))
	bad.Table.MustSet("w1", 0.5)
	if err := bad.Validate(); err == nil {
		t.Error("conditioned root accepted")
	}

	// Unknown event is rejected.
	unk := New(MustParse("A(B[zz])"))
	if err := unk.Validate(); err == nil {
		t.Error("unknown event accepted")
	}

	// Mixed content is rejected.
	mixed := New(&Node{Label: "A", Children: []*Node{{Label: "B", Value: "v", Children: []*Node{{Label: "C"}}}}})
	if err := mixed.Validate(); err == nil {
		t.Error("mixed content accepted")
	}

	// Nil pieces are rejected.
	if err := (&Tree{}).Validate(); err == nil {
		t.Error("nil root accepted")
	}
	if err := (&Tree{Root: &Node{Label: "A"}}).Validate(); err == nil {
		t.Error("nil table accepted")
	}
	var nilTree *Tree
	if err := nilTree.Validate(); err == nil {
		t.Error("nil tree accepted")
	}
}

// TestValidateAllocatesNothing pins the cost contract of Validate: every
// document read, encode and update pays it, so a valid tree is checked
// without a single allocation.
func TestValidateAllocatesNothing(t *testing.T) {
	ft := slide12()
	if n := testing.AllocsPerRun(100, func() {
		if err := ft.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v objects per run on a valid tree, want 0", n)
	}
}

// TestValidateFirstError pins which violation is reported when a tree
// has several: the first node in preorder, and within one condition the
// smallest unknown event whatever the literal order.
func TestValidateFirstError(t *testing.T) {
	ft := New(&Node{Label: "A", Children: []*Node{
		{Label: "B", Cond: event.Cond(event.Pos("zz"), event.Neg("aa"), event.Pos("w1"))},
		{Label: ""},
	}})
	ft.Table.MustSet("w1", 0.5)
	err := ft.Validate()
	if want := `fuzzy: condition of "B" uses unknown event "aa"`; err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %s", err, want)
	}
}

func TestUnderlyingStripsConditions(t *testing.T) {
	u := slide12().Underlying()
	want := tree.MustParse("A(B, C(D))")
	if !tree.Equal(u, want) {
		t.Errorf("Underlying = %s", tree.Format(u))
	}
}

func TestFromDataRoundTrip(t *testing.T) {
	d := tree.MustParse("A(B:foo, C(D:bar))")
	f := FromData(d)
	back := (&Tree{Root: f, Table: event.NewTable()}).Underlying()
	if !tree.Equal(d, back) {
		t.Errorf("round trip failed: %s", tree.Format(back))
	}
}

func TestCanonicalIgnoresSiblingOrder(t *testing.T) {
	a := MustParse("A(B[w1], C[w2])")
	b := MustParse("A(C[w2], B[w1])")
	if Canonical(a) != Canonical(b) {
		t.Error("sibling order should not matter")
	}
	if !Equal(a, b) {
		t.Error("Equal should ignore sibling order")
	}
}

func TestCanonicalSeesConditions(t *testing.T) {
	a := MustParse("A(B[w1])")
	b := MustParse("A(B[!w1])")
	if Equal(a, b) {
		t.Error("different conditions should not be Equal")
	}
	c := MustParse("A(B)")
	if Equal(a, c) {
		t.Error("conditioned and unconditioned nodes should differ")
	}
}

func TestCanonicalNormalizesConditions(t *testing.T) {
	a := &Node{Label: "A", Cond: nil, Children: []*Node{
		{Label: "B", Cond: event.Cond(event.Neg("w2"), event.Pos("w1"), event.Pos("w1"))},
	}}
	b := MustParse("A(B[w1 !w2])")
	if !Equal(a, b) {
		t.Error("canonical form should normalize conditions")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	inputs := []string{
		"A",
		"A(B[w1 !w2]:foo, C(D[w2]))",
		`A("we ird"[w1]:"va lue")`,
		"A(B, B, B[w1])",
	}
	for _, in := range inputs {
		n := MustParse(in)
		back, err := Parse(Format(n))
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", Format(n), in, err)
			continue
		}
		if !Equal(n, back) {
			t.Errorf("round trip %q -> %q changed the tree", in, Format(n))
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"A(",
		"A[w1",
		"A[!]",
		"A(B,)",
		"A B",
		"A()",
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseTreeValidates(t *testing.T) {
	if _, err := ParseTree("A(B[w1])", nil); err == nil {
		t.Error("missing event accepted")
	}
	if _, err := ParseTree("A(B[w1])", map[event.ID]float64{"w1": 1.5}); err == nil {
		t.Error("bad probability accepted")
	}
	ft, err := ParseTree("A(B[w1])", map[event.ID]float64{"w1": 0.5, "unused": 0.1})
	if err != nil {
		t.Fatalf("extra table events should be fine: %v", err)
	}
	if !ft.Table.Has("unused") {
		t.Error("extra event dropped")
	}
}

func TestWalkPathEffectiveConditions(t *testing.T) {
	ft := MustParseTree("A(B[w1](C[w2 w1]))", map[event.ID]float64{"w1": 0.5, "w2": 0.5})
	var got []string
	ft.Root.WalkPath(func(n *Node, path event.Condition) bool {
		got = append(got, n.Label+"="+path.String())
		return true
	})
	want := []string{"A=", "B=w1", "C=w1 w2"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("WalkPath = %v, want %v", got, want)
	}
}

func TestReplaceRemoveChild(t *testing.T) {
	n := MustParse("A(B, C)")
	b, c := n.Children[0], n.Children[1]
	if !n.ReplaceChild(b, MustParse("X"), MustParse("Y")) {
		t.Fatal("ReplaceChild failed")
	}
	if len(n.Children) != 3 || n.Children[0].Label != "X" {
		t.Errorf("children after replace: %v", Format(n))
	}
	if !n.RemoveChild(c) {
		t.Fatal("RemoveChild failed")
	}
	if len(n.Children) != 2 {
		t.Errorf("children after remove: %v", Format(n))
	}
	if n.RemoveChild(c) {
		t.Error("double remove succeeded")
	}
}

func TestTreeString(t *testing.T) {
	s := slide12().String()
	if !strings.Contains(s, "w1=0.8") || !strings.Contains(s, "B[w1 !w2]") {
		t.Errorf("String = %q", s)
	}
}
