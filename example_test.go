package fuzzyxml_test

import (
	"fmt"
	"os"
	"sort"

	fuzzyxml "repro"
)

// ExampleEvalQuery reproduces the probability computation of slide 13 of
// the paper on the slide-12 document.
func ExampleEvalQuery() {
	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w2], C(D[w2]))",
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})

	answers, err := fuzzyxml.EvalQuery(fuzzyxml.MustParseQuery("A(B)"), doc)
	if err != nil {
		panic(err)
	}
	for _, a := range answers {
		fmt.Printf("%s with probability %.2f\n", fuzzyxml.FormatTree(a.Tree), a.P)
	}
	// Output:
	// A(B) with probability 0.24
}

// ExamplePossibleWorlds expands the slide-12 document into its
// possible-worlds semantics.
func ExamplePossibleWorlds() {
	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w2], C(D[w2]))",
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})

	pw, err := fuzzyxml.PossibleWorlds(doc)
	if err != nil {
		panic(err)
	}
	for _, w := range pw.Worlds {
		fmt.Printf("P=%.2f  %s\n", w.P, fuzzyxml.FormatTree(w.Tree))
	}
	// Output:
	// P=0.70  A(C(D))
	// P=0.24  A(B, C)
	// P=0.06  A(C)
}

// ExampleApplyUpdate reproduces the conditional replacement of slide 15:
// replace C by D if B is present, with confidence 0.9.
func ExampleApplyUpdate() {
	doc := fuzzyxml.MustParseFuzzy("A(B[w1], C[w2])",
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})

	tx := fuzzyxml.NewTransaction(
		fuzzyxml.MustParseQuery("A $a(B $b, C $c)"),
		0.9,
		fuzzyxml.InsertOp("a", fuzzyxml.MustParseTree("D")),
		fuzzyxml.DeleteOp("c"),
	)
	tx.ConfEvent = "w3"

	updated, _, err := fuzzyxml.ApplyUpdate(tx, doc)
	if err != nil {
		panic(err)
	}
	fmt.Println(fuzzyxml.FormatFuzzy(updated.Root))
	// Output:
	// A(B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3])
}

// ExampleFromWorlds encodes a possible-worlds distribution as a fuzzy
// tree and recovers it, illustrating the expressiveness theorem.
func ExampleFromWorlds() {
	pw := &fuzzyxml.Worlds{}
	pw.Add(fuzzyxml.MustParseTree("R(X)"), 0.5)
	pw.Add(fuzzyxml.MustParseTree("R(Y)"), 0.5)

	doc, err := fuzzyxml.FromWorlds(pw, "e")
	if err != nil {
		panic(err)
	}
	back, err := fuzzyxml.PossibleWorlds(doc)
	if err != nil {
		panic(err)
	}
	var lines []string
	for _, w := range back.Worlds {
		lines = append(lines, fmt.Sprintf("P=%.2f %s", w.P, fuzzyxml.FormatTree(w.Tree)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// P=0.50 R(X)
	// P=0.50 R(Y)
}

// ExampleWarehouse_Query stores a document in a warehouse and queries
// it: answers come back with exact probabilities, evaluated on an
// immutable snapshot outside every lock.
func ExampleWarehouse_Query() {
	dir, err := os.MkdirTemp("", "wh")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	w, err := fuzzyxml.OpenWarehouse(dir)
	if err != nil {
		panic(err)
	}
	defer w.Close()

	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w2], C(D[w2]))",
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})
	if err := w.Create("mydoc", doc); err != nil {
		panic(err)
	}

	answers, err := w.Query("mydoc", fuzzyxml.MustParseQuery("A(B)"))
	if err != nil {
		panic(err)
	}
	for _, a := range answers {
		fmt.Printf("%s with probability %.2f\n", fuzzyxml.FormatTree(a.Tree), a.P)
	}
	// Output:
	// A(B) with probability 0.24
}

// ExampleWarehouse_Search runs a probabilistic keyword search against
// a stored document: each answer is a document node with the exact
// probability that it is an SLCA of the keywords in a random world.
func ExampleWarehouse_Search() {
	dir, err := os.MkdirTemp("", "wh")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	w, err := fuzzyxml.OpenWarehouse(dir)
	if err != nil {
		panic(err)
	}
	defer w.Close()

	doc := fuzzyxml.MustParseFuzzy(
		`lib(book[w1](title:kafka, author:max), shelf(book[w2](title:kafka)))`,
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.5})
	if err := w.Create("lib", doc); err != nil {
		panic(err)
	}

	res, err := w.Search("lib", fuzzyxml.KeywordRequest{Keywords: []string{"kafka"}})
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Printf("P=%.2g  %s\n", a.P, a.Path)
	}
	// Output:
	// P=0.8  /lib/book/title
	// P=0.5  /lib/shelf/book/title
}

// ExampleWarehouse_RegisterView registers a materialized view and
// shows its answers staying current across an update — the
// probability flows from 0.24 to 0.24 · 0.5 = 0.12 without the client
// re-issuing the query.
func ExampleWarehouse_RegisterView() {
	dir, err := os.MkdirTemp("", "wh")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	w, err := fuzzyxml.OpenWarehouse(dir)
	if err != nil {
		panic(err)
	}
	defer w.Close()

	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w2], C(D[w2]))",
		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})
	if err := w.Create("mydoc", doc); err != nil {
		panic(err)
	}

	reg, err := w.RegisterView("mydoc", "hot", "A(B $x)", "")
	if err != nil {
		panic(err)
	}
	fmt.Printf("registered with %d answer, P=%.2f\n", len(reg.Answers), reg.Answers[0].P)

	// A probabilistic deletion of B with confidence 0.5; the view is
	// maintained as part of the update.
	tx := fuzzyxml.NewTransaction(
		fuzzyxml.MustParseQuery("A(B $b)"), 0.5, fuzzyxml.DeleteOp("b"))
	if _, err := w.Update("mydoc", tx); err != nil {
		panic(err)
	}

	res, err := w.ReadView("mydoc", "hot")
	if err != nil {
		panic(err)
	}
	fmt.Printf("after update: P=%.2f\n", res.Answers[0].P)
	// Output:
	// registered with 1 answer, P=0.24
	// after update: P=0.12
}

// ExampleSimplify prunes a redundant document.
func ExampleSimplify() {
	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w1], C[w2 !w3], C[w2 w3])",
		map[fuzzyxml.EventID]float64{"w1": 0.5, "w2": 0.7, "w3": 0.5})

	stats := fuzzyxml.Simplify(doc)
	fmt.Println(fuzzyxml.FormatFuzzy(doc.Root))
	fmt.Printf("removed %d nodes, merged %d siblings\n",
		stats.NodesRemoved, stats.SiblingsMerged)
	// Output:
	// A(C[w2])
	// removed 1 nodes, merged 1 siblings
}
