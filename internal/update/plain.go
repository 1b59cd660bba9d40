package update

import (
	"fmt"
	"slices"

	"repro/internal/tpwj"
	"repro/internal/tree"
)

// ApplyData applies τ to a plain data tree: it finds all valuations of
// the transaction's query, applies every insertion (once per valuation),
// then every deletion. The input is not modified; the returned tree is
// fresh. selected reports whether the query had at least one valuation
// (if not, the result is an unmodified copy).
//
// Two error conditions exist: inserting under a leaf that carries a
// textual value (which would create mixed content) and deleting the
// document root.
func (tx *Transaction) ApplyData(doc *tree.Node) (result *tree.Node, selected bool, err error) {
	if err := tx.Validate(); err != nil {
		return nil, false, err
	}
	if err := doc.Validate(); err != nil {
		return nil, false, err
	}
	d := tpwj.Flatten(doc)
	targets := tx.targetPositions()

	type insApp struct {
		target  int32
		subtree *tree.Node
	}
	var inserts []insApp
	var deletes []int32

	err = d.Valuations(tx.Query, func(bound []int32) bool {
		selected = true
		for i, op := range tx.Ops {
			target := bound[targets[i]]
			switch op.Kind {
			case OpInsert:
				inserts = append(inserts, insApp{target: target, subtree: op.Subtree})
			case OpDelete:
				deletes = append(deletes, target)
			}
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	if !selected {
		return doc.Clone(), false, nil
	}

	// Deep-copy the tree by id: clone[i] is the copy of node i.
	clone := make([]*tree.Node, d.Len())
	for id := range clone {
		n := d.Plain(int32(id))
		clone[id] = &tree.Node{Label: n.Label, Value: n.Value}
		if p := d.Parent(int32(id)); p >= 0 {
			clone[p].Children = append(clone[p].Children, clone[id])
		}
	}

	for _, ins := range inserts {
		t := clone[ins.target]
		if t.Value != "" {
			return nil, true, fmt.Errorf("update: insert under value leaf %q would create mixed content", t.Label)
		}
		t.Children = append(t.Children, ins.subtree.Clone())
	}

	// Each target once, in reverse document order, so that removing a
	// node whose ancestor is also deleted stays well defined.
	slices.Sort(deletes)
	deletes = slices.Compact(deletes)
	slices.Reverse(deletes)
	for _, id := range deletes {
		if id == 0 {
			return nil, true, fmt.Errorf("update: cannot delete the document root")
		}
		clone[d.Parent(id)].RemoveChild(clone[id])
	}
	return clone[0], true, nil
}
