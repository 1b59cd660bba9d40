package update

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
)

// FuzzyStats reports what ApplyFuzzy did.
type FuzzyStats struct {
	// Valuations is the number of (satisfiable) valuations of the query
	// on the underlying tree.
	Valuations int
	// Event is the confidence event minted for the transaction, or ""
	// when none was needed (confidence 1, or nothing matched).
	Event event.ID
	// Inserted counts attached subtrees.
	Inserted int
	// DeletedOutright counts nodes removed without expansion (the match
	// condition was implied by the node's own existence).
	DeletedOutright int
	// Copies counts conditioned copies created by deletion expansion;
	// this is the quantity that grows exponentially under complex
	// dependencies (slide 14, experiment E5).
	Copies int

	// The structural footprint of the transaction, recorded for
	// materialized-view maintenance (internal/view): which parts of the
	// document the update could have changed. Label paths are rooted
	// slash-joined label sequences ("/A/B"); they identify positions up
	// to same-labeled siblings, which is all the (conservative) overlap
	// analysis needs.

	// InsertedLabels are the distinct labels appearing in subtrees the
	// transaction attached. A query that tests none of these labels
	// (and has no wildcard) cannot gain a valuation from the inserts.
	InsertedLabels []string
	// DeleteTargetPaths are the distinct label paths of deletion
	// targets. Deletion rewrites the target into conditioned copies (or
	// removes it), so conditions changed — and structure was duplicated
	// or removed — only at or below these paths.
	DeleteTargetPaths []string
}

// ApplyFuzzy applies the transaction directly to a fuzzy tree
// (slides 14–15), returning a new tree; the input is unchanged.
//
// One fresh confidence event w with P(w) = Conf is minted per transaction
// (none when Conf = 1). For every valuation with satisfiable match
// condition γ (the conjunction of the conditions of the matched nodes and
// their ancestors):
//
//   - an insertion into target v attaches the subtree conditioned on
//     (γ ∧ w) minus the literals already implied by v's path, so the new
//     node exists exactly in the worlds where the update applies;
//
//   - a deletion of target v computes the residual ρ = (γ ∧ w) minus v's
//     path literals; if ρ is empty, v is simply removed; otherwise v is
//     rewritten into the |ρ| conditioned copies
//
//     v[cond ∧ ¬l₁], v[cond ∧ l₁ ∧ ¬l₂], …, v[cond ∧ l₁ … l_{k−1} ∧ ¬l_k]
//
//     which together exist exactly when v existed and the deletion did
//     not apply — the construction of slide 15.
//
// By the commutation theorem (slide 14), expanding the result equals
// applying the transaction to the expansion — tested property,
// experiment E4.
func (tx *Transaction) ApplyFuzzy(ft *fuzzy.Tree) (*fuzzy.Tree, *FuzzyStats, error) {
	if err := tx.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ft.Validate(); err != nil {
		return nil, nil, err
	}
	work := ft.Clone()
	stats := &FuzzyStats{}

	// The flat form of the pre-update tree: valuations are found on it,
	// and targets, their parents, depths and path conditions are read
	// off it after the mutations below have started moving nodes.
	d := tpwj.FlattenFuzzy(work)

	// Collect per-valuation operation instances against the pre-update
	// tree.
	targets := tx.targetPositions()
	type insApp struct {
		target  *fuzzy.Node
		subtree *tree.Node
		cond    event.Condition // residual, before the confidence event
	}
	var inserts []insApp
	delRho := make(map[int32][]event.Condition)
	delSeen := make(map[int32]map[string]bool)
	var delOrder []int32

	var ids []int32
	err := d.Valuations(tx.Query, func(bound []int32) bool {
		// γ: the conjunction of the conditions of all nodes required
		// for the valuation to exist (matched nodes and their ancestors).
		ids = d.Closure(bound, ids)
		gamma := d.Condition(ids)
		if !gamma.Satisfiable() {
			return true // valuation exists in no world
		}
		stats.Valuations++
		for i, op := range tx.Ops {
			target := bound[targets[i]]
			rho := residual(d, gamma, target)
			switch op.Kind {
			case OpInsert:
				inserts = append(inserts, insApp{target: d.Fuzzy(target), subtree: op.Subtree, cond: rho})
			case OpDelete:
				key := rho.String()
				if delSeen[target] == nil {
					delSeen[target] = make(map[string]bool)
					delOrder = append(delOrder, target)
				}
				if !delSeen[target][key] {
					delSeen[target][key] = true
					delRho[target] = append(delRho[target], rho)
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if stats.Valuations == 0 {
		return work, stats, nil
	}

	// Record the structural footprint (on the pre-update tree, before
	// any mutation moves nodes around) for view maintenance.
	insLabels := make(map[string]bool)
	for _, ins := range inserts {
		ins.subtree.Walk(func(n *tree.Node) bool {
			insLabels[n.Label] = true
			return true
		})
	}
	stats.InsertedLabels = sortedKeys(insLabels)
	delPaths := make(map[string]bool)
	for _, target := range delOrder {
		delPaths[labelPath(d, target)] = true
	}
	stats.DeleteTargetPaths = sortedKeys(delPaths)

	// Mint the confidence event.
	var confLit event.Condition
	if tx.Conf < 1 {
		id := tx.ConfEvent
		if id == "" {
			fresh, err := work.Table.Fresh("u", tx.Conf)
			if err != nil {
				return nil, nil, err
			}
			id = fresh
		} else {
			if work.Table.Has(id) {
				return nil, nil, fmt.Errorf("update: confidence event %q already in table", id)
			}
			if err := work.Table.Set(id, tx.Conf); err != nil {
				return nil, nil, err
			}
		}
		stats.Event = id
		confLit = event.Cond(event.Pos(id))
	}

	// Insertions first, as in ApplyData.
	for _, ins := range inserts {
		if ins.target.Value != "" {
			return nil, nil, fmt.Errorf("update: insert under value leaf %q would create mixed content", ins.target.Label)
		}
		child := fuzzy.FromData(ins.subtree)
		child.Cond = ins.cond.And(confLit)
		ins.target.Add(child)
		stats.Inserted++
	}

	// Deletions, in reverse document order so that expanding a node
	// happens after all deletions inside its subtree are done.
	slices.Sort(delOrder)
	slices.Reverse(delOrder)
	for _, target := range delOrder {
		if target == 0 {
			return nil, nil, fmt.Errorf("update: cannot delete the document root")
		}
		parent := d.Fuzzy(d.Parent(target))
		copies := []*fuzzy.Node{d.Fuzzy(target)}
		for _, rho := range delRho[target] {
			// The confidence literal goes last, so the expansion tries
			// the pre-existing condition literals first and only then
			// the fresh event — reproducing the copy set of slide 15.
			delta := append(rho.Clone(), confLit...)
			if len(delta) == 0 {
				// The deletion applies whenever the node exists.
				for _, c := range copies {
					parent.RemoveChild(c)
					stats.DeletedOutright++
				}
				copies = nil
				break
			}
			var next []*fuzzy.Node
			for _, c := range copies {
				repl := expandDeletion(c, delta)
				parent.ReplaceChild(c, repl...)
				next = append(next, repl...)
			}
			stats.Copies += len(next)
			copies = next
		}
	}
	return work, stats, nil
}

// expandDeletion rewrites one node copy c for a deletion with residual
// condition δ = l₁…l_k, producing up to k conditioned copies
// c[cond ∧ l₁…l_{i−1} ∧ ¬l_i]. Copies whose condition is unsatisfiable on
// its own are dropped.
func expandDeletion(c *fuzzy.Node, delta event.Condition) []*fuzzy.Node {
	var out []*fuzzy.Node
	var prefix event.Condition
	for _, l := range delta {
		cond := c.Cond.And(prefix).And(event.Cond(l.Negate()))
		if cond.Satisfiable() {
			copy := c.Clone()
			copy.Cond = cond
			out = append(out, copy)
		}
		prefix = prefix.And(event.Cond(l))
	}
	return out
}

// residual returns γ minus the literals that the path conditions of
// target (its own condition and its ancestors') already imply, in
// canonical form: what must additionally hold for the valuation to
// exist where target does.
func residual(d *tpwj.Doc, gamma event.Condition, target int32) event.Condition {
	var rho event.Condition
	for _, l := range gamma {
		implied := false
		for a := target; a >= 0 && !implied; a = d.Parent(a) {
			implied = d.Fuzzy(a).Cond.Contains(l)
		}
		if !implied {
			rho = append(rho, l)
		}
	}
	return rho
}

// labelPath returns the rooted label path "/A/B/C" of node id.
func labelPath(d *tpwj.Doc, id int32) string {
	var labels []string
	for a := id; a >= 0; a = d.Parent(a) {
		labels = append(labels, d.Fuzzy(a).Label)
	}
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(labels[i])
	}
	return b.String()
}

// sortedKeys returns the keys of a string set, sorted.
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
