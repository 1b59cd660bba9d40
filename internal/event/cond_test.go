package event

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestLiteralString(t *testing.T) {
	if got := Pos("w1").String(); got != "w1" {
		t.Errorf("Pos = %q", got)
	}
	if got := Neg("w2").String(); got != "!w2" {
		t.Errorf("Neg = %q", got)
	}
	if got := Neg("w2").Negate(); got != Pos("w2") {
		t.Errorf("Negate = %v", got)
	}
}

func TestConditionNormalize(t *testing.T) {
	c := Cond(Neg("w2"), Pos("w1"), Pos("w1"))
	n := c.Normalize()
	if n.String() != "w1 !w2" {
		t.Errorf("Normalize = %q, want %q", n.String(), "w1 !w2")
	}
	if got := Condition(nil).Normalize(); got != nil {
		t.Errorf("Normalize(nil) = %v, want nil", got)
	}
	if got := Cond().Normalize(); got != nil {
		t.Errorf("Normalize(empty) = %v, want nil", got)
	}
}

func TestConditionNormalizeKeepsContradiction(t *testing.T) {
	c := Cond(Pos("w"), Neg("w"))
	n := c.Normalize()
	if len(n) != 2 {
		t.Errorf("contradictory pair should be preserved, got %v", n)
	}
	if n.Satisfiable() {
		t.Error("contradiction reported satisfiable")
	}
}

func TestSatisfiable(t *testing.T) {
	if !Cond(Pos("a"), Neg("b")).Satisfiable() {
		t.Error("a !b should be satisfiable")
	}
	if Cond(Pos("a"), Neg("a")).Satisfiable() {
		t.Error("a !a should be unsatisfiable")
	}
	if !Condition(nil).Satisfiable() {
		t.Error("true should be satisfiable")
	}
}

// TestSatisfiableNonCanonical: the pairwise scan of short conditions
// and the sort-first path of long ones give the map-based definition's
// answer on unsorted input with repeated literals, and the short path
// allocates nothing.
func TestSatisfiableNonCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := r.Intn(40)
		c := make(Condition, n)
		for j := range c {
			c[j] = Literal{Event: ID(fmt.Sprintf("e%d", r.Intn(2*n+1))), Neg: r.Intn(4) == 0}
		}
		seen := map[ID]bool{}
		want := true
		for _, l := range c {
			if neg, ok := seen[l.Event]; ok && neg != l.Neg {
				want = false
			}
			seen[l.Event] = l.Neg
		}
		if got := c.Satisfiable(); got != want {
			t.Fatalf("Satisfiable(%v) = %v, want %v", c, got, want)
		}
	}
	c := Cond(Pos("e3"), Neg("e1"), Pos("e3"), Pos("e2"), Neg("e7"), Pos("e5"))
	if n := testing.AllocsPerRun(100, func() { c.Satisfiable() }); n != 0 {
		t.Errorf("Satisfiable allocates %v times on a six-literal condition, want 0", n)
	}
}

func TestAnd(t *testing.T) {
	c := MustParseCondition("w1")
	d := MustParseCondition("!w2 w1")
	got := c.And(d)
	if got.String() != "w1 !w2" {
		t.Errorf("And = %q", got.String())
	}
	contradiction := MustParseCondition("w1").And(MustParseCondition("!w1"))
	if contradiction.Satisfiable() {
		t.Error("w1 ∧ !w1 should be unsatisfiable")
	}
}

func TestEntails(t *testing.T) {
	c := MustParseCondition("w1 w2 !w3")
	if !c.Entails(MustParseCondition("w1 !w3")) {
		t.Error("superset should entail subset")
	}
	if c.Entails(MustParseCondition("w4")) {
		t.Error("missing literal should not be entailed")
	}
	if !c.Entails(nil) {
		t.Error("everything entails true")
	}
	unsat := MustParseCondition("w1 !w1")
	if !unsat.Entails(MustParseCondition("anything")) {
		t.Error("unsatisfiable condition entails everything")
	}
}

func TestMinus(t *testing.T) {
	c := MustParseCondition("w1 w2 w3")
	d := MustParseCondition("w2")
	if got := c.Minus(d); got.String() != "w1 w3" {
		t.Errorf("Minus = %q", got.String())
	}
	// Negated literal of same event is not removed.
	e := MustParseCondition("!w2")
	if got := c.Minus(e); got.String() != "w1 w2 w3" {
		t.Errorf("Minus with opposite sign = %q", got.String())
	}
}

func TestConditionEval(t *testing.T) {
	c := MustParseCondition("w1 !w2")
	cases := []struct {
		a    Assignment
		want bool
	}{
		{Assignment{"w1": true, "w2": false}, true},
		{Assignment{"w1": true, "w2": true}, false},
		{Assignment{"w1": false, "w2": false}, false},
		{Assignment{}, false}, // absent events default to false: w1 false
	}
	for i, tc := range cases {
		if got := c.Eval(tc.a); got != tc.want {
			t.Errorf("case %d: Eval(%v) = %t, want %t", i, tc.a, got, tc.want)
		}
	}
	if !Condition(nil).Eval(Assignment{}) {
		t.Error("true condition should hold under any assignment")
	}
}

func TestConditionEvents(t *testing.T) {
	c := MustParseCondition("w2 !w1 w2")
	ev := c.Events()
	if len(ev) != 2 || ev[0] != "w1" || ev[1] != "w2" {
		t.Errorf("Events = %v", ev)
	}
}

func TestConditionEqual(t *testing.T) {
	a := Cond(Pos("w1"), Neg("w2"))
	b := Cond(Neg("w2"), Pos("w1"), Pos("w1"))
	if !a.Equal(b) {
		t.Error("conditions equal up to order and duplicates should compare equal")
	}
	if a.Equal(Cond(Pos("w1"))) {
		t.Error("different conditions compare equal")
	}
}

func TestParseCondition(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", "", true},
		{"  ", "", true},
		{"w1", "w1", true},
		{"w1 !w2", "w1 !w2", true},
		{"!w2, w1", "w1 !w2", true},
		{"~w2 w1", "w1 !w2", true},
		{"¬w2 w1", "w1 !w2", true},
		{"!!w1", "w1", true}, // double negation
		{"!", "", false},
		{"w!1", "", false},
	}
	for _, tc := range cases {
		got, err := ParseCondition(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseCondition(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && got.String() != tc.want {
			t.Errorf("ParseCondition(%q) = %q, want %q", tc.in, got.String(), tc.want)
		}
	}
}

func TestParseConditionRoundTrip(t *testing.T) {
	orig := Cond(Pos("w1"), Neg("w2"), Pos("x9")).Normalize()
	back, err := ParseCondition(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip: %q -> %q", orig.String(), back.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	c := Cond(Pos("w1"), Pos("w2"))
	d := c.Clone()
	d[0] = Neg("w9")
	if c[0] != Pos("w1") {
		t.Error("mutating clone affected original")
	}
	if Condition(nil).Clone() != nil {
		t.Error("clone of nil should be nil")
	}
}
