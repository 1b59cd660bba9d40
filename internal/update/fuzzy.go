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
// (slides 14–15), returning a new tree; the input is unchanged. It
// checks the transaction, validates and flattens the input, then
// applies as ApplyFlat does.
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
//
// The result shares every subtree the transaction does not touch with
// the input (see ApplyFlat): neither may be written in place while the
// other is still used, so clone before an in-place Simplify.
func (tx *Transaction) ApplyFuzzy(ft *fuzzy.Tree) (*fuzzy.Tree, *FuzzyStats, error) {
	if err := tx.Validate(); err != nil {
		return nil, nil, err
	}
	d, err := tpwj.FlattenValid(ft)
	if err != nil {
		return nil, nil, err
	}
	next, _, stats, err := tx.ApplyFlat(d)
	return next, stats, err
}

// ApplyFlat is ApplyFuzzy on the flat form d of a valid fuzzy tree
// (tpwj.FlattenValid, or tpwj.FlattenFuzzy of a tree known to be valid;
// a plain Flatten form will not do), for a caller that holds one
// already: the valuations, targets, parents and path conditions are all
// read off d, so the input is neither validated nor flattened again.
// The transaction must have passed Validate; the caller checks it
// before it builds d, as that check is O(transaction) and the flatten
// O(document). It also returns the result's node count, derived from
// the edit. The result of a valid input is valid: the new
// conditions use the input's events and the minted one, and the
// inserted subtrees passed Validate.
//
// The result is built by path copying. Each node on a path from the
// root to an edit is copied once, with its own Children slice; every
// other subtree of the result is the input's, shared by pointer, as
// are the conditions of the copied nodes. Inserted subtrees and
// deletion copies are fresh. The event table is cloned. So the input
// stays valid and unchanged, but a caller that writes the result in
// place (fuzzy.Tree.Simplify) while the input is still used must clone
// it first.
func (tx *Transaction) ApplyFlat(d *tpwj.Doc) (*fuzzy.Tree, int, *FuzzyStats, error) {
	stats := &FuzzyStats{}

	// Collect per-valuation operation instances against the input.
	targets := tx.targetPositions()
	type insApp struct {
		target  int32
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
				inserts = append(inserts, insApp{target: target, subtree: op.Subtree, cond: rho})
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
		return nil, 0, nil, err
	}
	in := d.Tree()
	if stats.Valuations == 0 {
		return &fuzzy.Tree{Root: in.Root, Table: in.Table.Clone()}, d.Len(), stats, nil
	}

	// Record the structural footprint for view maintenance.
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
	table := in.Table.Clone()
	var confLit event.Condition
	if tx.Conf < 1 {
		id := tx.ConfEvent
		if id == "" {
			fresh, err := table.Fresh("u", tx.Conf)
			if err != nil {
				return nil, 0, nil, err
			}
			id = fresh
		} else {
			if table.Has(id) {
				return nil, 0, nil, fmt.Errorf("update: confidence event %q already in table", id)
			}
			if err := table.Set(id, tx.Conf); err != nil {
				return nil, 0, nil, err
			}
		}
		stats.Event = id
		confLit = event.Cond(event.Pos(id))
	}

	// Insertions first, as in ApplyData: a target's new children go
	// after its old ones, in valuation order, and are in place when
	// the target is copied.
	s := &spine{d: d, adds: make(map[int32][]*fuzzy.Node), nodes: make(map[int32]*fuzzy.Node), grow: make(map[int32]int)}
	for _, ins := range inserts {
		if d.Value(ins.target) != "" {
			return nil, 0, nil, fmt.Errorf("update: insert under value leaf %q would create mixed content", d.Label(ins.target))
		}
		child := fuzzy.FromData(ins.subtree)
		child.Cond = ins.cond.And(confLit)
		s.adds[ins.target] = append(s.adds[ins.target], child)
		s.resize(ins.target, ins.subtree.Size())
		stats.Inserted++
	}
	for _, ins := range inserts {
		s.copyOf(ins.target)
	}

	// Deletions, in reverse document order so that expanding a node
	// happens after all deletions inside its subtree are done. The
	// slot of a target in its parent is then still its input slot:
	// only later siblings have been replaced so far.
	slices.Sort(delOrder)
	slices.Reverse(delOrder)
	for _, target := range delOrder {
		if target == 0 {
			return nil, 0, nil, fmt.Errorf("update: cannot delete the document root")
		}
		copies := []*fuzzy.Node{s.node(target)}
		for _, rho := range delRho[target] {
			// The confidence literal goes last, so the expansion tries
			// the pre-existing condition literals first and only then
			// the fresh event — reproducing the copy set of slide 15.
			delta := append(rho.Clone(), confLit...)
			if len(delta) == 0 {
				// The deletion applies whenever the node exists.
				stats.DeletedOutright += len(copies)
				copies = nil
				break
			}
			var next []*fuzzy.Node
			for _, c := range copies {
				next = append(next, expandDeletion(c, delta)...)
			}
			stats.Copies += len(next)
			copies = next
		}
		s.replace(target, copies)
	}
	return &fuzzy.Tree{Root: s.node(0), Table: table}, d.Len() + s.grow[0], stats, nil
}

// spine is a successor under construction by path copying: the copies
// of the input nodes on root-to-edit paths, by input id. Every node
// without a copy is the input's, shared.
type spine struct {
	d *tpwj.Doc
	// adds are the children inserted under each target, appended to
	// its copy when it is made.
	adds  map[int32][]*fuzzy.Node
	nodes map[int32]*fuzzy.Node
	// grow is how many nodes each copied subtree has gained (negative:
	// lost) so far, so the result's size is d.Len() + grow[0].
	grow map[int32]int
}

// node returns the successor's node for input node id: its copy, or
// the input's node if it has none.
func (s *spine) node(id int32) *fuzzy.Node {
	if c, ok := s.nodes[id]; ok {
		return c
	}
	return s.d.Fuzzy(id)
}

// copyOf returns the copy of input node id, making it — and the copies
// of its ancestors — on first use. A copy shares the input node's
// condition, and its Children slice is sized exactly for the input's
// children plus the inserted ones.
func (s *spine) copyOf(id int32) *fuzzy.Node {
	if c, ok := s.nodes[id]; ok {
		return c
	}
	n := s.d.Fuzzy(id)
	c := &fuzzy.Node{Label: n.Label, Value: n.Value, Cond: n.Cond}
	if k := len(n.Children) + len(s.adds[id]); k > 0 {
		c.Children = append(append(make([]*fuzzy.Node, 0, k), n.Children...), s.adds[id]...)
	}
	s.nodes[id] = c
	if p := s.d.Parent(id); p >= 0 {
		s.copyOf(p).Children[s.slot(id)] = c
	}
	return c
}

// slot returns the index of input node id among its parent's children.
func (s *spine) slot(id int32) int {
	i := 0
	for c := s.d.Parent(id) + 1; c < id; c = s.d.End(c) {
		i++
	}
	return i
}

// replace puts repl where input node id is in its parent's copy: a
// deletion's conditioned copies, or nothing.
func (s *spine) replace(id int32, repl []*fuzzy.Node) {
	p := s.d.Parent(id)
	parent := s.copyOf(p)
	i := s.slot(id)
	if len(repl) == 1 {
		parent.Children[i] = repl[0]
	} else {
		kids := make([]*fuzzy.Node, 0, len(parent.Children)-1+len(repl))
		kids = append(append(kids, parent.Children[:i]...), repl...)
		parent.Children = append(kids, parent.Children[i+1:]...)
	}
	size := int(s.d.End(id)-id) + s.grow[id]
	s.resize(p, (len(repl)-1)*size)
}

// resize records that the subtree of input node id, and so every
// subtree above it, gained delta nodes.
func (s *spine) resize(id int32, delta int) {
	for ; id >= 0; id = s.d.Parent(id) {
		s.grow[id] += delta
	}
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
