package gen

import (
	"math/rand"
	"testing"

	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/worlds"
)

func TestTreeValidAndDeterministic(t *testing.T) {
	a := Tree(rand.New(rand.NewSource(1)), TreeConfig{})
	b := Tree(rand.New(rand.NewSource(1)), TreeConfig{})
	if !tree.Equal(a, b) {
		t.Error("same seed must give the same tree")
	}
	c := Tree(rand.New(rand.NewSource(2)), TreeConfig{})
	if tree.Equal(a, c) {
		t.Error("different seeds should give different trees (very likely)")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated tree invalid: %v", err)
	}
}

func TestTreeRespectsDepth(t *testing.T) {
	n := Tree(rand.New(rand.NewSource(3)), TreeConfig{Depth: 2, MaxFanout: 3})
	if n.Depth() > 3 {
		t.Errorf("depth = %d, want <= 3", n.Depth())
	}
}

func TestTreeOfSize(t *testing.T) {
	for _, want := range []int{1, 2, 10, 500} {
		n := TreeOfSize(rand.New(rand.NewSource(4)), want, TreeConfig{})
		if got := n.Size(); got != want {
			t.Errorf("TreeOfSize(%d) has %d nodes", want, got)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("TreeOfSize(%d) invalid: %v", want, err)
		}
	}
}

func TestFuzzyValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ft := Fuzzy(rand.New(rand.NewSource(seed)), FuzzyConfig{Events: 3})
		if err := ft.Validate(); err != nil {
			t.Fatalf("seed %d: invalid fuzzy tree: %v", seed, err)
		}
		if len(ft.Root.Cond) != 0 {
			t.Fatalf("seed %d: root has condition", seed)
		}
	}
}

func TestFuzzyExpandsToDistribution(t *testing.T) {
	ft := Fuzzy(rand.New(rand.NewSource(7)), FuzzyConfig{Events: 3, Tree: TreeConfig{Depth: 3, MaxFanout: 2}})
	s, err := ft.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsDistribution(worlds.Eps) {
		t.Error("expansion not a distribution")
	}
}

func TestMatchingQueryAlwaysMatches(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := Tree(r, TreeConfig{})
		q := MatchingQuery(r, doc, seed%2 == 0)
		n, err := tpwj.CountMatches(q, doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n == 0 {
			t.Errorf("seed %d: generated query does not match its document:\nq=%s\ndoc=%s",
				seed, tpwj.FormatQuery(q), tree.Format(doc))
		}
	}
}

func TestExtractionFeed(t *testing.T) {
	w := ExtractionFeed(rand.New(rand.NewSource(1)), 5)
	if len(w.Transactions) != 5 {
		t.Fatalf("transactions = %d", len(w.Transactions))
	}
	final, stats, err := w.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("stats = %d", len(stats))
	}
	// Five person records under the root, each conditioned on its own
	// confidence event.
	if got := len(final.Root.Children); got != 5 {
		t.Errorf("records = %d, want 5", got)
	}
	for _, c := range final.Root.Children {
		if len(c.Cond) != 1 {
			t.Errorf("record condition = %q, want one confidence literal", c.Cond)
		}
	}
	if final.Table.Len() != 5 {
		t.Errorf("events = %d, want 5", final.Table.Len())
	}
}

func TestCleaningFeed(t *testing.T) {
	w := CleaningFeed(rand.New(rand.NewSource(2)), 3)
	final, _, err := w.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Validate(); err != nil {
		t.Fatalf("final tree invalid: %v", err)
	}
	// Each record now carries both the old city (conditioned on the
	// cleaning having missed) and the new one.
	size := final.Size()
	if size <= w.Doc.Size() {
		t.Errorf("cleaning should have grown the tree: %d -> %d", w.Doc.Size(), size)
	}
}

func TestDependentDeletionsGrow(t *testing.T) {
	small, _, err := DependentDeletions(2).Apply()
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := DependentDeletions(4).Apply()
	if err != nil {
		t.Fatal(err)
	}
	// Growth must accelerate with k: compare growth over initial size.
	growSmall := small.Size() - DependentDeletions(2).Doc.Size()
	growBig := big.Size() - DependentDeletions(4).Doc.Size()
	if growBig <= 2*growSmall {
		t.Errorf("expected super-linear growth: k=2 -> +%d, k=4 -> +%d", growSmall, growBig)
	}
}

func TestIndependentDeletionsDoNotGrow(t *testing.T) {
	w := IndependentDeletions(5)
	final, _, err := w.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if final.Size() != w.Doc.Size() {
		t.Errorf("independent deletions grew the tree: %d -> %d", w.Doc.Size(), final.Size())
	}
}

func TestWorkloadApplyReportsErrors(t *testing.T) {
	w := ExtractionFeed(rand.New(rand.NewSource(1)), 1)
	w.Transactions[0].Conf = 5 // invalid
	if _, _, err := w.Apply(); err == nil {
		t.Error("invalid transaction accepted")
	}
}
