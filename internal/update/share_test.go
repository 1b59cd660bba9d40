package update

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xmlio"
)

// TestApplyFuzzyInputUnchanged pins the contract of path copying on
// random trees and transactions (TestUpdateCommutationRandom's
// generator) and on the golden corpus: after every application the
// input's serialization and table are unchanged, the derived node
// count equals a walk's, and the output's nodes that are not the
// input's are at most the copied spine, the inserted subtrees and the
// deletion copies. Along each golden chain, every earlier version
// still encodes to the bytes it had when it was made, so no update
// writes a node it shares with a predecessor.
func TestApplyFuzzyInputUnchanged(t *testing.T) {
	queries := []string{"*(//B $x)", "A(* $x)", "*(B $x, //C $y)", "* $x(//* $y)"}
	applied := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		ft := randomFuzzyTree(r, 3, 3)
		q := tpwj.MustParseQuery(queries[r.Intn(len(queries))])
		var ops []Op
		vars := q.VarNames()
		for _, v := range vars {
			switch r.Intn(3) {
			case 0:
				ops = append(ops, Insert(v, tree.MustParse("N(M:new)")))
			case 1:
				ops = append(ops, Delete(v))
			}
		}
		if len(ops) == 0 {
			ops = append(ops, Insert(vars[0], tree.MustParse("N:new")))
		}
		tx := New(q, []float64{0.5, 0.9, 1.0}[r.Intn(3)], ops...)
		if checkApply(t, fmt.Sprintf("seed %d", seed), tx, ft) != nil {
			applied++
		}
	}
	if applied < 200 {
		t.Errorf("only %d of 400 random transactions applied", applied)
	}

	for i, ft := range []*fuzzy.Tree{
		sectionDoc(1, 32, 16, 64), sectionDoc(2, 24, 32, 3), sectionDoc(3, 32, 16, 64), sectionDoc(4, 16, 8, 24),
	} {
		var versions []*fuzzy.Tree
		var encoded [][]byte
		for j, gt := range goldenTransactions {
			op := Delete("v")
			if gt.Insert != "" {
				op = Insert("v", tree.MustParse(gt.Insert))
			}
			versions, encoded = append(versions, ft), append(encoded, docXML(t, ft))
			ft = checkApply(t, fmt.Sprintf("golden doc %d step %d", i, j), New(tpwj.MustParseQuery(gt.Query), gt.Conf, op), ft)
			if ft == nil {
				t.Fatalf("golden doc %d step %d failed", i, j)
			}
		}
		for j, v := range versions {
			if !bytes.Equal(docXML(t, v), encoded[j]) {
				t.Errorf("golden doc %d: version %d changed after later updates", i, j)
			}
		}
	}
}

// TestApplyFuzzySharesUntouchedSections: a one-section insert into a
// 256-section document copies the root and that section, attaches the
// two inserted nodes, and leaves every other section pointer-equal to
// the input's.
func TestApplyFuzzySharesUntouchedSections(t *testing.T) {
	ft := sectionDoc(5, 256, 16, 64)
	tx := New(tpwj.MustParseQuery("A(S $v(K=s77))"), 0.9, Insert("v", tree.MustParse("G(L:x)")))
	next := checkApply(t, "one-section insert", tx, ft)
	if next == nil {
		t.Fatal("insert failed")
	}
	if got := len(next.Root.Children); got != 256 {
		t.Fatalf("%d sections, want 256", got)
	}
	for i, s := range next.Root.Children {
		if shared := s == ft.Root.Children[i]; shared == (i == 77) {
			t.Errorf("section %d: shared with the input = %v", i, shared)
		}
	}
	if fresh := freshNodes(ft, next); fresh != 4 {
		t.Errorf("%d nodes not shared with the input, want 4 (root, section, G, L)", fresh)
	}
}

// checkApply applies tx to ft through ApplyFlat and checks the path
// copying contract, returning the result (nil when tx fails on ft).
func checkApply(t *testing.T, name string, tx *Transaction, ft *fuzzy.Tree) *fuzzy.Tree {
	t.Helper()
	before, table := docXML(t, ft), ft.Table.String()
	if err := tx.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := tpwj.FlattenValid(ft)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	next, nodes, stats, err := tx.ApplyFlat(d)
	if !bytes.Equal(docXML(t, ft), before) || ft.Table.String() != table {
		t.Fatalf("%s: the transaction changed its input (err %v)", name, err)
	}
	if err != nil {
		return nil
	}
	if n := next.Size(); nodes != n {
		t.Errorf("%s: node count %d, the tree has %d", name, nodes, n)
	}
	if err := next.Validate(); err != nil {
		t.Errorf("%s: invalid result: %v", name, err)
	}
	// The spine is at most one copy per level per edit point; an edit
	// inserts or deletes under one target of one valuation.
	depth := 0
	for id := int32(0); id < int32(d.Len()); id++ {
		k := 0
		for a := id; a >= 0; a = d.Parent(a) {
			k++
		}
		depth = max(depth, k)
	}
	maxSub := 0
	for id := int32(1); id < int32(d.Len()); id++ {
		maxSub = max(maxSub, int(d.End(id)-id))
	}
	inserted := 0
	for _, op := range tx.Ops {
		if op.Kind == OpInsert {
			inserted += stats.Valuations * op.Subtree.Size()
		}
	}
	bound := depth*stats.Valuations*len(tx.Ops) + inserted + stats.Copies*(maxSub+inserted)
	if fresh := freshNodes(ft, next); fresh > bound {
		t.Errorf("%s: %d nodes not shared with the input, want at most %d (%d valuations, %d copies)",
			name, fresh, bound, stats.Valuations, stats.Copies)
	}
	return next
}

// freshNodes counts the nodes of out that are not nodes of in.
func freshNodes(in, out *fuzzy.Tree) int {
	old := make(map[*fuzzy.Node]bool)
	in.Root.Walk(func(n *fuzzy.Node) bool {
		old[n] = true
		return true
	})
	fresh := 0
	out.Root.Walk(func(n *fuzzy.Node) bool {
		if !old[n] {
			fresh++
		}
		return true
	})
	return fresh
}

func docXML(t *testing.T, ft *fuzzy.Tree) []byte {
	t.Helper()
	data, err := xmlio.DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
