package event

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestCompileNormalizes(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8).MustSet("w2", 0.7).MustSet("w3", 0.5)
	d := DNF{
		MustParseCondition("w1 w2"),
		MustParseCondition("w1"),     // absorbs w1 w2
		MustParseCondition("w3 !w3"), // unsatisfiable, dropped
		MustParseCondition("w1"),     // duplicate
	}
	c, err := tab.CompileDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClauses() != 1 {
		t.Errorf("compiled to %d clauses, want 1", c.NumClauses())
	}
	if !c.Small() {
		t.Error("3-event DNF should take the bitset fast path")
	}
	if p := c.Prob(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("Prob = %v, want 0.8", p)
	}
}

func TestCompileTrueClause(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8)
	// The empty clause makes the DNF true; the unknown event in the
	// other clause is never consulted (matching possible-worlds
	// semantics and the historical ProbDNF behavior).
	c, err := tab.CompileDNF(DNF{MustParseCondition("zz"), nil})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Prob(); p != 1 {
		t.Errorf("Prob = %v, want 1", p)
	}
}

func TestCompileUnknownEventAbsorbed(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8)
	// "w1 zz" is absorbed by "w1", so the unknown zz never surfaces.
	p, err := tab.ProbDNF(DNF{MustParseCondition("w1"), MustParseCondition("w1 zz")})
	if err != nil {
		t.Fatalf("absorbed unknown event should not error: %v", err)
	}
	if math.Abs(p-0.8) > 1e-12 {
		t.Errorf("ProbDNF = %v, want 0.8", p)
	}
	// Unknown event in an unsatisfiable clause is likewise dropped.
	if _, err := tab.ProbDNF(DNF{MustParseCondition("zz !zz"), MustParseCondition("w1")}); err != nil {
		t.Fatalf("unsatisfiable clause with unknown event should not error: %v", err)
	}
	// But a surviving unknown event is an error.
	if _, err := tab.ProbDNF(DNF{MustParseCondition("zz")}); err == nil {
		t.Error("surviving unknown event accepted")
	}

	// The Monte-Carlo estimators accept exactly the DNFs ProbDNF does:
	// both inputs normalize to "w1", so the estimate approaches 0.8, and
	// a surviving zz still errors.
	estimators := map[string]func(DNF) (float64, error){
		"EstimateDNF": func(d DNF) (float64, error) {
			return tab.EstimateDNF(d, 20_000, rand.New(rand.NewSource(1)))
		},
		"EstimateDNFCtx": func(d DNF) (float64, error) {
			return tab.EstimateDNFCtx(context.Background(), d, 20_000, rand.New(rand.NewSource(1)))
		},
	}
	for name, estimate := range estimators {
		for _, d := range []DNF{
			{MustParseCondition("w1"), MustParseCondition("w1 zz")},
			{MustParseCondition("zz !zz"), MustParseCondition("w1")},
		} {
			p, err := estimate(d)
			if err != nil {
				t.Errorf("%s(%v): absorbed or contradictory unknown event should not error: %v", name, d, err)
				continue
			}
			if math.Abs(p-0.8) > 0.02 {
				t.Errorf("%s(%v) = %v, want ≈0.8", name, d, p)
			}
		}
		if _, err := estimate(DNF{MustParseCondition("zz")}); err == nil {
			t.Errorf("%s: surviving unknown event accepted", name)
		}
	}
}

func TestProbDNFComponents(t *testing.T) {
	// Three pairwise-disjoint clauses: the decomposition must give
	// 1 - ∏(1 - pᵢ·qᵢ) exactly.
	tab := NewTable()
	probs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	for i, p := range probs {
		tab.MustSet(ID(fmt.Sprintf("e%d", i)), p)
	}
	d := DNF{
		MustParseCondition("e0 e1"),
		MustParseCondition("e2 e3"),
		MustParseCondition("e4 !e5"),
	}
	want := 1 - (1-0.1*0.2)*(1-0.3*0.4)*(1-0.5*0.4)
	components := engineComponents.Value()
	got, err := tab.ProbDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ProbDNF = %v, want %v", got, want)
	}
	if c := engineComponents.Value() - components; c < 3 {
		t.Errorf("components counter advanced by %d, want >= 3", c)
	}
	brute, err := tab.ProbDNFBrute(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-brute) > 1e-12 {
		t.Errorf("ProbDNF = %v, brute = %v", got, brute)
	}
}

// TestProbDNFLargeUniverse exercises the >64-event slow path (no
// bitsets) against a closed form: 80 disjoint two-literal clauses.
func TestProbDNFLargeUniverse(t *testing.T) {
	tab := NewTable()
	var d DNF
	want := 1.0
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 80; i++ {
		a := ID(fmt.Sprintf("a%d", i))
		b := ID(fmt.Sprintf("b%d", i))
		pa, pb := r.Float64(), r.Float64()
		tab.MustSet(a, pa)
		tab.MustSet(b, pb)
		d = append(d, Cond(Pos(a), Neg(b)))
		want *= 1 - pa*(1-pb)
	}
	want = 1 - want
	c, err := tab.CompileDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Small() {
		t.Fatal("160-event DNF must not claim the bitset fast path")
	}
	if got := c.Prob(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Prob = %v, want %v", got, want)
	}
	// The sampling path over the same compiled form converges too.
	if est := c.Estimate(20000, rand.New(rand.NewSource(1))); math.Abs(est-want) > 0.02 {
		t.Errorf("Estimate = %v, want ≈ %v", est, want)
	}
}

func TestEngineCountersAdvance(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8).MustSet("w2", 0.7).MustSet("w3", 0.6)
	compiles, bitset, misses, collisions := engineCompiles.Value(), engineBitsetCompiles.Value(), engineMemoMisses.Value(), engineHashCollisions.Value()
	d := DNF{
		MustParseCondition("w1 w2"),
		MustParseCondition("w2 w3"),
		MustParseCondition("!w1 w3"),
	}
	if _, err := tab.ProbDNF(d); err != nil {
		t.Fatal(err)
	}
	if c, b := engineCompiles.Value()-compiles, engineBitsetCompiles.Value()-bitset; c != 1 || b != 1 {
		t.Errorf("compiles = %d/%d, want 1/1", c, b)
	}
	if engineMemoMisses.Value() == misses {
		t.Errorf("memo misses did not advance")
	}
	if h := engineHashCollisions.Value() - collisions; h != 0 {
		t.Errorf("hash collisions = %d on a tiny DNF", h)
	}
}

func TestCompiledEstimateRejectsNonPositiveSamples(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8)
	for _, d := range []DNF{nil, {nil}, {MustParseCondition("w1")}} {
		c, err := tab.CompileDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Estimate(0, rand.New(rand.NewSource(1))); !math.IsNaN(got) {
			t.Errorf("Estimate(%v, 0 samples) = %v, want NaN", d, got)
		}
	}
}

func TestCompiledEstimateMatchesProb(t *testing.T) {
	tab := NewTable()
	r := rand.New(rand.NewSource(3))
	tab.MustSet("w1", 0.8).MustSet("w2", 0.7).MustSet("w3", 0.4)
	d := DNF{MustParseCondition("w1 !w2"), MustParseCondition("w2 w3"), MustParseCondition("!w1 !w3")}
	c, err := tab.CompileDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Prob()
	got := c.Estimate(200000, r)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Estimate = %v, Prob = %v", got, want)
	}
}

// TestProbDNFAdversarialShapes stresses the incremental cofactoring and
// absorption against the brute-force oracle on dense overlapping DNFs,
// where the old string-keyed engine spent most of its time.
func TestProbDNFAdversarialShapes(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := randomEventTable(r, 2+r.Intn(9)) // up to 10 events
		d := randomDNF(r, tab, 8, 5)
		exact, err := tab.ProbDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := tab.ProbDNFBrute(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-brute) > 1e-12 {
			t.Errorf("seed %d: ProbDNF = %v, brute = %v (dnf %v)", seed, exact, brute, d)
		}
	}
}

// TestTableCloneCompactsInterner guards against unbounded interner
// growth: Delete leaves a tombstone (indexes must stay stable for
// concurrent compiles), but Clone must reclaim it — warehouse clones a
// table per update, and updates mint fresh events that simplification
// later deletes.
func TestTableCloneCompactsInterner(t *testing.T) {
	tab := NewTable()
	tab.MustSet("keep", 0.5)
	for i := 0; i < 100; i++ {
		id, _ := tab.Fresh("tmp", 0.5)
		tab.Delete(id)
	}
	if len(tab.rev) != 101 {
		t.Fatalf("original interner has %d entries, want 101 (with tombstones)", len(tab.rev))
	}
	c := tab.Clone()
	if len(c.rev) != 1 || len(c.idx) != 1 {
		t.Errorf("cloned interner has %d/%d entries, want 1/1", len(c.rev), len(c.idx))
	}
	p, err := c.ProbDNF(DNF{MustParseCondition("keep")})
	if err != nil || p != 0.5 {
		t.Errorf("clone ProbDNF = %v, %v; want 0.5", p, err)
	}
	// Fresh on the clone must not collide with the surviving event.
	if id, err := c.Fresh("tmp", 0.3); err != nil || !c.Has(id) {
		t.Errorf("Fresh on compacted clone: %v, %v", id, err)
	}
}

func TestTableCloneKeepsInterner(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8).MustSet("w2", 0.7)
	c := tab.Clone()
	c.MustSet("w3", 0.5)
	if tab.Has("w3") {
		t.Error("clone mutation leaked into original")
	}
	// Both tables still answer the same probabilities.
	d := DNF{MustParseCondition("w1 w2")}
	p1, err1 := tab.ProbDNF(d)
	p2, err2 := c.ProbDNF(d)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p1 != p2 {
		t.Errorf("clone ProbDNF = %v, original = %v", p2, p1)
	}
}
