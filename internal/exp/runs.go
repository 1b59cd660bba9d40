package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/worlds"
)

// Slide9Doc returns the fuzzy document whose expansion is the
// possible-worlds set of slide 9.
func Slide9Doc() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1], C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

// Slide12Doc returns the fuzzy document of slide 12.
func Slide12Doc() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1 !w2], C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

// Slide15Doc returns the pre-update document of slide 15.
func Slide15Doc() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

// Slide15Tx returns the conditional replacement of slide 15: replace C
// by D if B is present, with confidence 0.9 (event w3).
func Slide15Tx() *update.Transaction {
	tx := update.New(
		tpwj.MustParseQuery("A $a(B $b, C $c)"),
		0.9,
		update.Insert("a", tree.MustParse("D")),
		update.Delete("c"),
	)
	tx.ConfEvent = "w3"
	return tx
}

// RunE1 reproduces the possible-worlds set of slide 9.
func RunE1() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "possible-worlds semantics of A(B[w1], C(D[w2]))",
		Ref:    "slide 9",
		Header: []string{"world", "P paper", "P measured"},
		OK:     true,
	}
	expected := []struct {
		text string
		p    float64
	}{
		{"A(C)", 0.06},
		{"A(C(D))", 0.14},
		{"A(B, C)", 0.24},
		{"A(B, C(D))", 0.56},
	}
	pw, err := Slide9Doc().Expand()
	if err != nil {
		t.OK = false
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, e := range expected {
		got := pw.ProbOf(tree.MustParse(e.text))
		t.AddRow(e.text, fmt.Sprintf("%.2f", e.p), fmt.Sprintf("%.2f", got))
		if math.Abs(got-e.p) > 1e-9 {
			t.OK = false
		}
	}
	if pw.Len() != len(expected) {
		t.OK = false
		t.Notes = append(t.Notes, fmt.Sprintf("unexpected world count %d", pw.Len()))
	}
	return t
}

// RunE2 reproduces the slide-12 semantics, checks the expressiveness
// round trip, and measures how the exact expansion blows up with the
// number of events (the reason the fuzzy representation exists).
func RunE2() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "fuzzy-tree semantics, expressiveness, expansion blow-up",
		Ref:    "slide 12",
		Header: []string{"events", "tree nodes", "distinct worlds", "expand"},
		OK:     true,
	}

	// Golden slide-12 check.
	pw, err := Slide12Doc().Expand()
	if err != nil {
		t.OK = false
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, e := range []struct {
		text string
		p    float64
	}{{"A(C)", 0.06}, {"A(C(D))", 0.70}, {"A(B, C)", 0.24}} {
		if math.Abs(pw.ProbOf(tree.MustParse(e.text))-e.p) > 1e-9 {
			t.OK = false
			t.Notes = append(t.Notes, fmt.Sprintf("slide-12 mismatch on %s", e.text))
		}
	}
	t.Notes = append(t.Notes, "slide-12 golden worlds: P = 0.06 / 0.70 / 0.24 verified")

	// Expressiveness round trip on the slide-9 set.
	enc, err := fuzzy.FromWorlds(pw, "e")
	if err != nil {
		t.OK = false
		t.Notes = append(t.Notes, err.Error())
	} else if back, err := enc.Expand(); err != nil || !back.Equal(pw, 1e-9) {
		t.OK = false
		t.Notes = append(t.Notes, "expressiveness round trip failed")
	} else {
		t.Notes = append(t.Notes, "possible-worlds -> fuzzy -> possible-worlds round trip verified")
	}

	// Expansion blow-up series on the deterministic sections document:
	// m independent events yield exactly 2^m distinct worlds.
	for _, m := range []int{2, 4, 6, 8, 10, 12, 14} {
		ft := SectionDoc(m)
		var distinct int
		d := timeIt(5*time.Millisecond, func() {
			pw, err := ft.Expand()
			if err != nil {
				panic(err)
			}
			distinct = pw.Len()
		})
		t.AddRow(fmt.Sprint(m), fmt.Sprint(ft.Size()), fmt.Sprint(distinct), us(d)+" µs")
	}
	t.Notes = append(t.Notes, "expansion enumerates 2^events assignments: exponential, as the paper's model predicts")
	return t
}

// SectionDoc builds the deterministic scaling document used by E2–E4:
//
//	A( S[e1](L:v1, M:u1), …, S[em](L:vm, M:um) )
//
// Each of the m sections is guarded by its own event (probability
// 0.5 + i/(4m)), so the document has exactly 2^m distinct possible
// worlds.
func SectionDoc(m int) *fuzzy.Tree {
	root := fuzzy.NewNode("A")
	tab := event.NewTable()
	for i := 1; i <= m; i++ {
		id := event.ID(fmt.Sprintf("e%d", i))
		tab.MustSet(id, 0.5+float64(i)/float64(4*m))
		root.Add(fuzzy.NewNode("S",
			fuzzy.NewLeaf("L", fmt.Sprintf("v%d", i)),
			fuzzy.NewLeaf("M", fmt.Sprintf("u%d", i)),
		).WithCond(event.Cond(event.Pos(id))))
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// AblationDNF builds the ablation workload of BenchmarkAblationProbDNF:
// m events and m random two-literal clauses over them.
func AblationDNF(m int) (*event.Table, event.DNF) {
	tab := event.NewTable()
	r := rand.New(rand.NewSource(int64(m)))
	ids := make([]event.ID, 0, m)
	for i := 0; i < m; i++ {
		id, _ := tab.Fresh("e", 0.1+0.8*r.Float64())
		ids = append(ids, id)
	}
	var d event.DNF
	for i := 0; i < m; i++ {
		c := event.Cond(
			event.Literal{Event: ids[r.Intn(m)], Neg: r.Intn(2) == 0},
			event.Literal{Event: ids[r.Intn(m)], Neg: r.Intn(2) == 0},
		)
		d = append(d, c.Normalize())
	}
	return tab, d
}

// e3Instance builds the (document, query) pair with m events for the
// query experiments: the sections document and a query retrieving every
// L leaf (one answer per section, probability P(eᵢ)).
func e3Instance(m int) (*fuzzy.Tree, *tpwj.Query) {
	return SectionDoc(m), tpwj.MustParseQuery("A(//L $x)")
}

// RunE3 measures the commutation theorem's payoff: querying the fuzzy
// tree directly (polynomial) versus expanding to possible worlds and
// querying every world (exponential in events), plus the Monte-Carlo
// estimator. Correctness (identical answers and probabilities) is
// verified at every point.
func RunE3() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "query evaluation: fuzzy direct vs possible-worlds baseline",
		Ref:    "slide 13",
		Header: []string{"events", "worlds", "fuzzy", "worlds baseline", "MC(10k)", "speedup"},
		OK:     true,
	}
	for _, m := range []int{2, 4, 6, 8, 10, 12} {
		ft, q := e3Instance(m)

		var fuzzyAnswers []tpwj.ProbAnswer
		dFuzzy := timeIt(5*time.Millisecond, func() {
			var err error
			fuzzyAnswers, err = tpwj.EvalFuzzy(q, ft)
			if err != nil {
				panic(err)
			}
		})

		var pwCount int
		var worldAnswers *worlds.Set
		dWorlds := timeIt(5*time.Millisecond, func() {
			pw, err := ft.Expand()
			if err != nil {
				panic(err)
			}
			pwCount = pw.Len()
			worldAnswers, err = tpwj.EvalWorlds(q, pw, tpwj.MinimalSubtree)
			if err != nil {
				panic(err)
			}
		})

		rmc := rand.New(rand.NewSource(1))
		dMC := timeIt(5*time.Millisecond, func() {
			if _, err := tpwj.EvalFuzzyMonteCarlo(q, ft, 10000, rmc); err != nil {
				panic(err)
			}
		})

		// Commutation check.
		if len(fuzzyAnswers) != worldAnswers.Len() {
			t.OK = false
			t.Notes = append(t.Notes, fmt.Sprintf("m=%d: answer count mismatch", m))
		}
		for _, a := range fuzzyAnswers {
			if math.Abs(a.P-worldAnswers.ProbOf(a.Tree)) > 1e-9 {
				t.OK = false
				t.Notes = append(t.Notes, fmt.Sprintf("m=%d: probability mismatch", m))
				break
			}
		}
		t.AddRow(fmt.Sprint(m), fmt.Sprint(pwCount),
			us(dFuzzy)+" µs", us(dWorlds)+" µs", us(dMC)+" µs", ratio(dFuzzy, dWorlds))
	}
	t.Notes = append(t.Notes,
		"fuzzy == worlds on every instance (commutation theorem, slide 13)",
		"the worlds baseline scales with 2^events; direct fuzzy evaluation does not")
	return t
}

// RunE4 is E3 for updates: applying a transaction to the fuzzy tree
// versus applying it world by world.
func RunE4() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "update application: fuzzy direct vs possible-worlds baseline",
		Ref:    "slide 14",
		Header: []string{"events", "conf", "fuzzy", "worlds baseline", "speedup"},
		OK:     true,
	}
	for _, m := range []int{2, 4, 6, 8, 10, 12} {
		ft, _ := e3Instance(m)
		// Insert a note under every section (one valuation per section).
		tx := update.New(tpwj.MustParseQuery("A(S $x)"), 0.9,
			update.Insert("x", tree.MustParse("N:new")))

		var viaFuzzy *worlds.Set
		dFuzzy := timeIt(5*time.Millisecond, func() {
			if _, _, err := tx.ApplyFuzzy(ft); err != nil {
				panic(err)
			}
		})
		// One more application for the correctness check.
		updated, _, err := tx.ApplyFuzzy(ft)
		if err == nil {
			viaFuzzy, err = updated.Expand()
		}
		if err != nil {
			t.OK = false
			t.Notes = append(t.Notes, err.Error())
			continue
		}

		var viaWorlds *worlds.Set
		dWorlds := timeIt(5*time.Millisecond, func() {
			pw, err := ft.Expand()
			if err != nil {
				panic(err)
			}
			viaWorlds, err = tx.ApplyWorlds(pw)
			if err != nil {
				panic(err)
			}
		})

		if !viaFuzzy.Equal(viaWorlds, 1e-9) {
			t.OK = false
			t.Notes = append(t.Notes, fmt.Sprintf("m=%d: commutation mismatch", m))
		}
		t.AddRow(fmt.Sprint(m), "0.9", us(dFuzzy)+" µs", us(dWorlds)+" µs", ratio(dFuzzy, dWorlds))
	}
	t.Notes = append(t.Notes, "fuzzy == worlds on every instance (commutation theorem, slide 14)")
	return t
}

// RunE5 measures the deletion blow-up the paper warns about: k
// deletions whose conditions depend on other nodes multiply conditioned
// copies (exponential), while self-contained deletions leave the size
// unchanged.
func RunE5() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "deletion-induced growth: dependent vs independent deletions",
		Ref:    "slide 14",
		Header: []string{"k deletions", "dependent: nodes", "copies", "independent: nodes", "copies"},
		OK:     true,
	}
	prevGrowth := 0
	accelerating := true
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		dep := gen.DependentDeletions(k)
		depFinal, depStats, err := dep.Apply()
		if err != nil {
			t.OK = false
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		depCopies := 0
		for _, s := range depStats {
			depCopies += s.Copies
		}

		ind := gen.IndependentDeletions(k)
		indFinal, indStats, err := ind.Apply()
		if err != nil {
			t.OK = false
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		indCopies := 0
		for _, s := range indStats {
			indCopies += s.Copies
		}

		t.AddRow(fmt.Sprint(k),
			fmt.Sprintf("%d (from %d)", depFinal.Size(), dep.Doc.Size()), fmt.Sprint(depCopies),
			fmt.Sprintf("%d (from %d)", indFinal.Size(), ind.Doc.Size()), fmt.Sprint(indCopies))

		if k >= 2 {
			growth := depFinal.Size() - dep.Doc.Size()
			if growth <= prevGrowth {
				accelerating = false
			}
			prevGrowth = growth
		} else {
			prevGrowth = depFinal.Size() - dep.Doc.Size()
		}
		if indFinal.Size() != ind.Doc.Size() {
			t.OK = false
			t.Notes = append(t.Notes, "independent deletions changed the size")
		}
	}
	if !accelerating {
		t.OK = false
		t.Notes = append(t.Notes, "dependent growth did not accelerate")
	}
	t.Notes = append(t.Notes,
		"dependent deletions multiply conditioned copies (exponential growth, slide 14)",
		"independent deletions only rewrite conditions in place")
	return t
}

// RunE6 reproduces slide 15 literally and checks the exact output
// conditions.
func RunE6() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "conditional replacement of C by D if B present, conf 0.9",
		Ref:    "slide 15",
		Header: []string{"", "paper", "measured"},
		OK:     true,
	}
	got, _, err := Slide15Tx().ApplyFuzzy(Slide15Doc())
	if err != nil {
		t.OK = false
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	want := fuzzy.MustParse("A(B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3])")
	t.AddRow("result tree", fuzzy.Format(want), fuzzy.Format(got.Root))
	if !fuzzy.Equal(got.Root, want) {
		t.OK = false
	}
	p3, ok := got.Table.Prob("w3")
	t.AddRow("P(w3)", "0.9", fmt.Sprintf("%v (known=%v)", p3, ok))
	if !ok || p3 != 0.9 {
		t.OK = false
	}
	// Semantics: via fuzzy == via worlds.
	viaFuzzy, err1 := got.Expand()
	pw, err2 := Slide15Doc().Expand()
	if err1 != nil || err2 != nil {
		t.OK = false
		return t
	}
	viaWorlds, err := Slide15Tx().ApplyWorlds(pw)
	if err != nil || !viaFuzzy.Equal(viaWorlds, 1e-9) {
		t.OK = false
		t.Notes = append(t.Notes, "slide-15 commutation failed")
	} else {
		t.Notes = append(t.Notes, "commutation with possible-worlds semantics verified")
	}
	return t
}
