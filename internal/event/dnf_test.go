package event

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDNFNormalizeAbsorption(t *testing.T) {
	d := DNF{
		MustParseCondition("w1 w2"),
		MustParseCondition("w1"), // absorbs w1 w2
		MustParseCondition("w3 !w3"),
	}
	n := d.Normalize()
	if len(n) != 1 || n[0].String() != "w1" {
		t.Errorf("Normalize = %v", n)
	}
}

// normalizeReference is DNF.Normalize as first written: it renders
// clauses inside its comparators and absorbs through Entails. The wire
// format carries the normalized clauses' text, so Normalize must keep
// returning exactly this.
func normalizeReference(d DNF) DNF {
	var clauses []Condition
	for _, c := range d {
		if n := c.Normalize(); n.Satisfiable() {
			clauses = append(clauses, n)
		}
	}
	sort.Slice(clauses, func(i, j int) bool {
		if len(clauses[i]) != len(clauses[j]) {
			return len(clauses[i]) < len(clauses[j])
		}
		return clauses[i].String() < clauses[j].String()
	})
	var kept []Condition
	for _, c := range clauses {
		if !slices.ContainsFunc(kept, func(k Condition) bool { return c.Entails(k) }) {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].String() < kept[j].String() })
	if len(kept) == 0 {
		return nil
	}
	return DNF(kept)
}

func TestDNFNormalizeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable()
		// Names of different lengths, so that text order and literal
		// order differ ("e1 e10" sorts before "e1 e2").
		for i := 0; i < 3+r.Intn(12); i++ {
			tab.MustSet(ID(fmt.Sprintf("e%d", i)), r.Float64())
		}
		d := randomDNF(r, tab, 12, 4)
		if r.Intn(10) == 0 {
			d = append(d, nil)
		}
		got, want := d.Normalize(), normalizeReference(d)
		if got.String() != want.String() || len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("seed %d: Normalize(%v)\n got  %v\n want %v", seed, d, got, want)
		}
	}
}

func TestDNFNormalizeTrueClause(t *testing.T) {
	d := DNF{MustParseCondition("w1"), nil}
	n := d.Normalize()
	if !n.IsTrue() {
		t.Errorf("DNF with empty clause should normalize to true, got %v", n)
	}
	if len(n) != 1 {
		t.Errorf("true clause should absorb everything, got %v", n)
	}
}

func TestDNFNormalizeAllUnsat(t *testing.T) {
	d := DNF{MustParseCondition("w1 !w1")}
	if n := d.Normalize(); n != nil {
		t.Errorf("all-unsat DNF should normalize to false, got %v", n)
	}
}

func TestDNFEval(t *testing.T) {
	d := DNF{MustParseCondition("w1"), MustParseCondition("!w1 w2")}
	if !d.Eval(Assignment{"w1": true}) {
		t.Error("first clause should satisfy")
	}
	if !d.Eval(Assignment{"w1": false, "w2": true}) {
		t.Error("second clause should satisfy")
	}
	if d.Eval(Assignment{"w1": false, "w2": false}) {
		t.Error("no clause should satisfy")
	}
	if DNF(nil).Eval(Assignment{}) {
		t.Error("empty DNF is false")
	}
}

func TestDNFString(t *testing.T) {
	if got := DNF(nil).String(); got != "false" {
		t.Errorf("false DNF = %q", got)
	}
	if got := (DNF{nil}).String(); got != "true" {
		t.Errorf("true DNF = %q", got)
	}
	d := DNF{MustParseCondition("w1"), MustParseCondition("!w2")}
	if got := d.String(); got != "w1 | !w2" {
		t.Errorf("String = %q", got)
	}
}

func TestProbDNFGolden(t *testing.T) {
	tab := slideTable() // w1=0.8 w2=0.7
	cases := []struct {
		d    DNF
		want float64
	}{
		{nil, 0},
		{DNF{nil}, 1},
		{DNF{MustParseCondition("w1")}, 0.8},
		{DNF{MustParseCondition("w1"), MustParseCondition("w2")}, 1 - 0.2*0.3}, // 0.94
		{DNF{MustParseCondition("w1 w2")}, 0.56},
		{DNF{MustParseCondition("w1"), MustParseCondition("!w1")}, 1},
		{DNF{MustParseCondition("w1 !w2"), MustParseCondition("!w1 w2")}, 0.8*0.3 + 0.2*0.7},
		{DNF{MustParseCondition("w1 !w1")}, 0},
	}
	for i, tc := range cases {
		got, err := tab.ProbDNF(tc.d)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("case %d: ProbDNF(%v) = %v, want %v", i, tc.d, got, tc.want)
		}
	}
}

func TestProbDNFUnknownEvent(t *testing.T) {
	tab := slideTable()
	if _, err := tab.ProbDNF(DNF{MustParseCondition("zz")}); err == nil {
		t.Error("unknown event accepted")
	}
}

// randomDNF builds a random DNF over a small event universe.
func randomDNF(r *rand.Rand, tab *Table, maxClauses, maxLits int) DNF {
	events := tab.Events()
	k := 1 + r.Intn(maxClauses)
	d := make(DNF, 0, k)
	for i := 0; i < k; i++ {
		m := 1 + r.Intn(maxLits)
		var c Condition
		for j := 0; j < m; j++ {
			l := Literal{Event: events[r.Intn(len(events))], Neg: r.Intn(2) == 0}
			c = append(c, l)
		}
		d = append(d, c)
	}
	return d
}

func randomEventTable(r *rand.Rand, n int) *Table {
	tab := NewTable()
	for i := 0; i < n; i++ {
		tab.MustSet(ID(string(rune('a'+i))), r.Float64())
	}
	return tab
}

func TestProbDNFMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randomEventTable(r, 2+r.Intn(5))
		d := randomDNF(r, tab, 5, 4)
		exact, err := tab.ProbDNF(d)
		if err != nil {
			t.Log(err)
			return false
		}
		brute, err := tab.ProbDNFBrute(d)
		if err != nil {
			t.Log(err)
			return false
		}
		if math.Abs(exact-brute) > 1e-9 {
			t.Logf("seed %d: ProbDNF=%v brute=%v dnf=%v table=%v", seed, exact, brute, d, tab)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProbDNFNormalizationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randomEventTable(r, 2+r.Intn(4))
		d := randomDNF(r, tab, 4, 3)
		p1, err1 := tab.ProbDNF(d)
		p2, err2 := tab.ProbDNF(d.Normalize())
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p1-p2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateDNFConverges(t *testing.T) {
	tab := slideTable()
	d := DNF{MustParseCondition("w1 !w2"), MustParseCondition("!w1 w2")}
	want, _ := tab.ProbDNF(d)
	r := rand.New(rand.NewSource(42))
	got, err := tab.EstimateDNF(d, 200000, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Errorf("estimate %v far from exact %v", got, want)
	}
}

func TestEstimateDNFValidation(t *testing.T) {
	tab := slideTable()
	r := rand.New(rand.NewSource(1))
	if _, err := tab.EstimateDNF(DNF{MustParseCondition("w1")}, 0, r); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := tab.EstimateDNF(DNF{MustParseCondition("zz")}, 10, r); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestDNFEvents(t *testing.T) {
	d := DNF{MustParseCondition("w2 w1"), MustParseCondition("!w3")}
	ev := d.Events()
	if len(ev) != 3 || ev[0] != "w1" || ev[1] != "w2" || ev[2] != "w3" {
		t.Errorf("Events = %v", ev)
	}
}

func TestDNFCloneIndependence(t *testing.T) {
	d := DNF{MustParseCondition("w1")}
	c := d.Clone()
	c[0][0] = Neg("w9")
	if d[0][0] != Pos("w1") {
		t.Error("mutating clone affected original")
	}
	if DNF(nil).Clone() != nil {
		t.Error("clone of nil should be nil")
	}
}

func TestDNFOr(t *testing.T) {
	d := DNF(nil).Or(MustParseCondition("w1")).Or(MustParseCondition("w2"))
	if len(d) != 2 {
		t.Errorf("Or produced %d clauses", len(d))
	}
}

// TestDNFOrNoAliasing is the regression test for the append-aliasing
// hazard: two DNFs branched from the same prefix must not share a
// backing array, or the second Or silently overwrites the first
// branch's clause.
func TestDNFOrNoAliasing(t *testing.T) {
	base := make(DNF, 1, 4) // spare capacity, the dangerous case for append
	base[0] = MustParseCondition("w1")
	d1 := base.Or(MustParseCondition("w2"))
	d2 := base.Or(MustParseCondition("w3"))
	if got := d1[1].String(); got != "w2" {
		t.Errorf("first branch clause = %q, want \"w2\" (clobbered by aliasing)", got)
	}
	if got := d2[1].String(); got != "w3" {
		t.Errorf("second branch clause = %q, want \"w3\"", got)
	}
	// The receiver itself must stay untouched.
	if len(base) != 1 || base[0].String() != "w1" {
		t.Errorf("receiver mutated by Or: %v", base)
	}
}
