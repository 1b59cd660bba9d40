package fuzzy

import (
	"repro/internal/event"
)

// SimplifyStats reports what a simplification pass changed.
type SimplifyStats struct {
	NodesRemoved    int // unsatisfiable or certainly-absent nodes pruned
	LiteralsRemoved int // redundant literals dropped from conditions
	SiblingsMerged  int // complementary sibling pairs merged
	EventsRemoved   int // events dropped from the table
}

// Add accumulates other into s.
func (s *SimplifyStats) Add(other SimplifyStats) {
	s.NodesRemoved += other.NodesRemoved
	s.LiteralsRemoved += other.LiteralsRemoved
	s.SiblingsMerged += other.SiblingsMerged
	s.EventsRemoved += other.EventsRemoved
}

// Total returns the total number of changes.
func (s SimplifyStats) Total() int {
	return s.NodesRemoved + s.LiteralsRemoved + s.SiblingsMerged + s.EventsRemoved
}

// Simplify applies all semantics-preserving simplification passes to the
// tree, in place, until a fixpoint is reached ("fuzzy data
// simplification", slide 19). The possible-worlds semantics of the tree
// is unchanged (tested property). It returns the cumulative statistics.
//
// Passes, in order per round:
//  1. PruneUnsat — drop nodes whose effective path condition is
//     unsatisfiable.
//  2. AbsorbAncestorLiterals — drop literals already guaranteed by
//     ancestors.
//  3. FoldCertainEvents — resolve events with probability 0 or 1.
//  4. MergeComplementarySiblings — merge sibling copies that differ in
//     the sign of exactly one literal (undoing deletion expansion where
//     possible).
//  5. DropUnusedEvents — shrink the table to the events still used.
func (t *Tree) Simplify() SimplifyStats {
	var total SimplifyStats
	for round := 0; round < 100; round++ {
		var s SimplifyStats
		s.Add(t.PruneUnsat())
		s.Add(t.AbsorbAncestorLiterals())
		s.Add(t.FoldCertainEvents())
		s.Add(t.MergeComplementarySiblings())
		if s.Total() == 0 {
			break
		}
		total.Add(s)
	}
	total.Add(t.DropUnusedEvents())
	return total
}

// PruneUnsat removes, in place, every node whose effective path condition
// (its condition conjoined with all ancestors') is unsatisfiable. Such
// nodes exist in no possible world.
func (t *Tree) PruneUnsat() SimplifyStats {
	var stats SimplifyStats
	var rec func(n *Node, path event.Condition)
	rec = func(n *Node, path event.Condition) {
		for i := 0; i < len(n.Children); {
			c := n.Children[i]
			eff := path.And(c.Cond)
			if !eff.Satisfiable() {
				stats.NodesRemoved += c.Size()
				n.Children = append(n.Children[:i], n.Children[i+1:]...)
				continue
			}
			rec(c, eff)
			i++
		}
	}
	rec(t.Root, t.Root.Cond.Normalize())
	return stats
}

// AbsorbAncestorLiterals removes, in place, every condition literal that
// already appears in the node's ancestors' conditions: when the node's
// parent chain exists, those literals necessarily hold, so repeating them
// is redundant.
func (t *Tree) AbsorbAncestorLiterals() SimplifyStats {
	var stats SimplifyStats
	var rec func(n *Node, path event.Condition)
	rec = func(n *Node, path event.Condition) {
		for _, c := range n.Children {
			norm := c.Cond.Normalize()
			reduced := norm.Minus(path)
			if len(reduced) < len(norm) {
				stats.LiteralsRemoved += len(norm) - len(reduced)
				c.Cond = reduced
			}
			rec(c, path.And(c.Cond))
		}
	}
	rec(t.Root, t.Root.Cond.Normalize())
	return stats
}

// FoldCertainEvents resolves, in place, events whose probability is
// exactly 0 or 1: literals that certainly hold are dropped from
// conditions, and nodes with a literal that certainly fails are removed.
func (t *Tree) FoldCertainEvents() SimplifyStats {
	var stats SimplifyStats
	certain := make(map[event.ID]bool) // event -> certain truth value
	for _, e := range t.Table.Events() {
		if p, _ := t.Table.Prob(e); p == 0 {
			certain[e] = false
		} else if p == 1 {
			certain[e] = true
		}
	}
	if len(certain) == 0 {
		return stats
	}
	var rec func(n *Node)
	rec = func(n *Node) {
		for i := 0; i < len(n.Children); {
			c := n.Children[i]
			var kept event.Condition
			dead := false
			for _, l := range c.Cond.Normalize() {
				v, ok := certain[l.Event]
				if !ok {
					kept = append(kept, l)
					continue
				}
				if v == l.Neg { // literal certainly false
					dead = true
					break
				}
				stats.LiteralsRemoved++ // literal certainly true
			}
			if dead {
				stats.NodesRemoved += c.Size()
				n.Children = append(n.Children[:i], n.Children[i+1:]...)
				continue
			}
			c.Cond = kept
			rec(c)
			i++
		}
	}
	rec(t.Root)
	return stats
}

// MergeComplementarySiblings merges, in place, pairs of sibling subtrees
// that are identical except that their root conditions differ in the sign
// of exactly one literal: the pair {δ∧w, δ∧¬w} is equivalent to the
// single condition δ. This partially undoes the copy expansion performed
// by conditioned deletions (slide 15).
func (t *Tree) MergeComplementarySiblings() SimplifyStats {
	var stats SimplifyStats
	var rec func(n *Node)
	rec = func(n *Node) {
		// The siblings' normalized conditions, computed once rather than
		// once per pair: most pairs differ in length or are unconditioned.
		conds := make([]event.Condition, len(n.Children))
		for i, c := range n.Children {
			conds[i] = c.Cond.Normalize()
		}
	restart:
		for i := 0; i < len(n.Children); i++ {
			for j := i + 1; j < len(n.Children); j++ {
				merged, ok := mergeComplementary(n.Children[i], n.Children[j], conds[i], conds[j])
				if !ok {
					continue
				}
				n.Children[i], conds[i] = merged, merged.Cond.Normalize()
				n.Children = append(n.Children[:j], n.Children[j+1:]...)
				conds = append(conds[:j], conds[j+1:]...)
				stats.SiblingsMerged++
				goto restart
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return stats
}

// mergeComplementary reports whether a and b are identical fuzzy subtrees
// up to root conditions δ∧l and δ∧¬l, returning the merged node with
// condition δ. ca and cb are a's and b's conditions, normalized.
func mergeComplementary(a, b *Node, ca, cb event.Condition) (*Node, bool) {
	if a.Label != b.Label || a.Value != b.Value {
		return nil, false
	}
	if len(ca) != len(cb) || len(ca) == 0 {
		return nil, false
	}
	// Find exactly one literal of ca whose negation is in cb, with all
	// other literals shared.
	var pivot *event.Literal
	for _, l := range ca {
		if cb.Contains(l) {
			continue
		}
		if cb.Contains(l.Negate()) {
			if pivot != nil {
				return nil, false // two differing literals
			}
			lcopy := l
			pivot = &lcopy
			continue
		}
		return nil, false // literal absent from cb entirely
	}
	if pivot == nil {
		return nil, false // identical conditions: duplicates are kept (bag semantics)
	}
	// Subtrees below must be identical, including conditions.
	if childrenCanonical(a) != childrenCanonical(b) {
		return nil, false
	}
	merged := a.Clone()
	merged.Cond = ca.Minus(event.Cond(*pivot))
	return merged, true
}

func childrenCanonical(n *Node) string {
	tmp := &Node{Label: "x", Children: n.Children}
	return Canonical(tmp)
}

// DropUnusedEvents removes from the table, in place, every event that no
// condition in the tree mentions.
func (t *Tree) DropUnusedEvents() SimplifyStats {
	var stats SimplifyStats
	used := make(map[event.ID]bool)
	for _, e := range t.Events() {
		used[e] = true
	}
	for _, e := range t.Table.Events() {
		if !used[e] {
			t.Table.Delete(e)
			stats.EventsRemoved++
		}
	}
	return stats
}
