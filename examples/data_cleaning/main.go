// Data cleaning with uncertain corrections (slide 15 generalized): a
// cleaning pass replaces suspect values with corrections it is only
// partly confident about. Deletions under uncertainty expand the fuzzy
// tree (the paper's exponential-growth warning); simplification then
// shrinks it back where conditions allow.
//
// Run with: go run ./examples/data_cleaning
package main

import (
	"fmt"
	"math/rand"

	fuzzyxml "repro"
	"repro/internal/gen"
)

func main() {
	// A feed of extraction records with stale city values, each record
	// already uncertain (its own event).
	w := gen.CleaningFeed(rand.New(rand.NewSource(42)), 4)
	fmt.Println("before cleaning:")
	fmt.Println("  ", fuzzyxml.FormatFuzzy(w.Doc.Root))
	fmt.Printf("   %d nodes, %d events\n\n", w.Doc.Size(), w.Doc.Table.Len())

	// Apply the cleaning transactions (conditional replacement of each
	// record's city, with per-record confidence).
	final, stats, err := w.Apply()
	if err != nil {
		panic(err)
	}
	var copies int
	for _, s := range stats {
		copies += s.Copies
	}
	fmt.Println("after cleaning:")
	fmt.Println("  ", fuzzyxml.FormatFuzzy(final.Root))
	fmt.Printf("   %d nodes (deletion expansion created %d conditioned copies)\n\n",
		final.Size(), copies)

	// Queries see through the uncertainty: what is person000's city?
	q := fuzzyxml.MustParseQuery(`warehouse(person(name="person000", city $c))`)
	answers, err := fuzzyxml.EvalQuery(q, final)
	if err != nil {
		panic(err)
	}
	fmt.Println("person000's city:")
	for _, a := range answers {
		fmt.Printf("  P=%.3f  %s\n", a.P, fuzzyxml.FormatTree(a.Tree))
	}

	// Simplification preserves the semantics while shrinking the tree.
	// It works in place, and final shares its untouched subtrees with
	// w.Doc: that is safe here only because w.Doc is not used again
	// (clone final first otherwise).
	before := final.Size()
	sstats := fuzzyxml.Simplify(final)
	fmt.Printf("\nsimplify: %d -> %d nodes (-%d nodes, -%d literals, %d merges, -%d events)\n",
		before, final.Size(), sstats.NodesRemoved, sstats.LiteralsRemoved,
		sstats.SiblingsMerged, sstats.EventsRemoved)

	// Answers are unchanged after simplification.
	after, err := fuzzyxml.EvalQuery(q, final)
	if err != nil {
		panic(err)
	}
	same := len(after) == len(answers)
	for i := range after {
		if same && (after[i].P-answers[i].P > 1e-9 || answers[i].P-after[i].P > 1e-9) {
			same = false
		}
	}
	fmt.Println("answers unchanged after simplification:", same)
}
