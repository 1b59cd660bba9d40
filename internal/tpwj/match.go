package tpwj

import (
	"slices"

	"repro/internal/obs"
	"repro/internal/tree"
)

// Matcher work counters: every enumeration charges how many pattern-node
// assignments it attempted and how many complete valuations it emitted.
// They live on the obs default registry next to the engine counters and
// feed both /metrics and per-request ?explain=1 cost breakdowns.
var (
	tpwjNodesVisited = obs.Default().Counter("px_tpwj_nodes_visited_total", "pattern-node assignment attempts by the tree-pattern matcher")
	tpwjMatchesTried = obs.Default().Counter("px_tpwj_matches_total", "complete valuations emitted by the tree-pattern matcher")
)

// Label tests resolved against a document's interned labels.
const (
	anyLabel = -1 // the wildcard
	noLabel  = -2 // a label the document does not contain
)

// pnode is one pattern node resolved against one document. Pattern
// nodes are numbered in pattern preorder; every reference between them
// is such a number.
type pnode struct {
	src    *PNode
	label  int32 // interned label test, anyLabel or noLabel
	parent int32 // -1 for the pattern root
	size   int32 // pattern nodes in this subtree
	// prev is the previous positive sibling when the query is ordered
	// (this node must bind strictly after it in document order), else -1.
	prev int32
	// byLabel is set on a descendant step with a label test: the ids of
	// the document's nodes with that label, ascending, so that the step
	// tries them alone instead of every node below its anchor.
	byLabel   []int32
	joins     []int32 // nodes whose value must equal this node's
	forbidden []int32 // forbidden children
}

// plan is a query resolved against one document.
type plan struct {
	nodes []pnode
	// all is 0..len(nodes)-1. The nodes of a sub-pattern are a
	// contiguous run of it; positive lists the nodes outside forbidden
	// sub-patterns. Either is the order in which an enumeration binds.
	all, positive []int32
}

func compile(q *Query, d *Doc) *plan {
	n := q.Size()
	p := &plan{nodes: make([]pnode, 0, n), all: make([]int32, n), positive: make([]int32, 0, n)}
	var add func(src *PNode, parent int32, forbidden bool) int32
	add = func(src *PNode, parent int32, forbidden bool) int32 {
		k := int32(len(p.nodes))
		p.all[k] = k
		label, ok := d.ids[src.Label]
		switch {
		case src.Label == Wildcard:
			label = anyLabel
		case !ok:
			label = noLabel
		}
		p.nodes = append(p.nodes, pnode{src: src, label: label, parent: parent, prev: -1})
		if src.Desc && label >= 0 {
			p.nodes[k].byLabel = d.labelled(label)
		}
		forbidden = forbidden || src.Forbidden
		if !forbidden {
			p.positive = append(p.positive, k)
		}
		prev := int32(-1)
		for _, c := range src.Children {
			ck := add(c, k, forbidden)
			switch {
			case c.Forbidden:
				p.nodes[k].forbidden = append(p.nodes[k].forbidden, ck)
			case q.Ordered && !forbidden:
				p.nodes[ck].prev, prev = prev, ck
			}
		}
		p.nodes[k].size = int32(len(p.nodes)) - k
		return k
	}
	add(q.Root, -1, false)
	if len(q.Joins) > 0 {
		vars := q.VarPositions()
		for _, j := range q.Joins {
			l, r := int32(vars[j.Left]), int32(vars[j.Right])
			p.nodes[l].joins = append(p.nodes[l].joins, r)
			p.nodes[r].joins = append(p.nodes[r].joins, l)
		}
	}
	return p
}

// run is one enumeration in progress: the pattern nodes it binds, in
// order, and the document node each is bound to.
type run struct {
	seq []int32
	b   []int32 // indexed by pattern-node number
	// done is called at every complete binding; returning false stops
	// the enumeration. A nil done stops at the first one and sets found.
	done  func() bool
	found bool
}

// matcher carries the state of one query evaluation: the main
// enumeration over the positive pattern nodes, and the enumerations of
// forbidden sub-patterns it starts below a bound node.
type matcher struct {
	d *Doc
	p *plan
	// filter applies forbidden sub-patterns as not-exists filters
	// (plain-tree semantics). The fuzzy evaluator disables it and turns
	// forbidden sub-matches into negated formula parts instead, because
	// a forbidden node may exist in some worlds only.
	filter    bool
	main, sub run
	// visited / matches tally assignment attempts and emitted valuations
	// for cost accounting; flushed once per evaluation.
	visited, matches int64
}

// match enumerates all valuations of q in d, in a deterministic order
// (document preorder at each pattern node, depth-first over pattern
// nodes), calling fn with the matcher at each: m.main.b holds the
// valuation, -1 at the nodes of forbidden sub-patterns.
func (d *Doc) match(q *Query, filter bool, cost *obs.Cost, fn func(m *matcher) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	p := compile(q, d)
	b := make([]int32, 2*len(p.nodes))
	for i := range b {
		b[i] = -1
	}
	m := &matcher{d: d, p: p, filter: filter}
	m.main = run{seq: p.positive, b: b[:len(p.nodes)], done: func() bool { m.matches++; return fn(m) }}
	m.sub.b = b[len(p.nodes):]
	m.bind(&m.main, 0)
	obs.Charge(cost, obs.CostTpwjNodesVisited, tpwjNodesVisited, m.visited)
	obs.Charge(cost, obs.CostTpwjMatchesTried, tpwjMatchesTried, m.matches)
	return nil
}

// bind binds the pattern nodes r.seq[i:] in every possible way, the
// nodes before them being bound. It is the package's one enumerator:
// candidates for a pattern node are the children (end[] hops) or the
// descendants (an id range, or the part of the label's id list inside
// it) of its pattern parent's document node, in document order. It
// returns false to abort the whole enumeration.
func (m *matcher) bind(r *run, i int) bool {
	if i == len(r.seq) {
		if r.done == nil {
			r.found = true
			return false
		}
		return r.done()
	}
	d := m.d
	pn := &m.p.nodes[r.seq[i]]
	if pn.label == noLabel {
		return true
	}
	lo, hi, desc := int32(0), int32(len(d.label)), pn.src.Desc
	switch {
	case pn.parent >= 0:
		lo = r.b[pn.parent] + 1
		hi = d.end[lo-1]
	case !desc: // anchored pattern root: the document root alone
		hi, desc = min(hi, 1), true
	}
	if pn.byLabel != nil {
		at, _ := slices.BinarySearch(pn.byLabel, lo)
		for ; at < len(pn.byLabel) && pn.byLabel[at] < hi; at++ {
			if !m.try(r, i, pn.byLabel[at]) {
				return false
			}
		}
		return true
	}
	for c := lo; c < hi; {
		cur := c
		if desc {
			c++
		} else {
			c = d.end[c]
		}
		if !m.try(r, i, cur) {
			return false
		}
	}
	return true
}

// try binds pattern node r.seq[i] to the candidate cur if its tests
// pass, and goes on to the nodes after it.
func (m *matcher) try(r *run, i int, cur int32) bool {
	d, k := m.d, r.seq[i]
	pn := &m.p.nodes[k]
	if pn.prev >= 0 && cur <= r.b[pn.prev] {
		return true
	}
	m.visited++
	if pn.label != anyLabel && pn.label != d.label[cur] {
		return true
	}
	if pn.src.HasValue && pn.src.Value != d.Value(cur) {
		return true
	}
	r.b[k] = cur
	return !m.joinsOK(r, pn, k) || !m.forbiddenOK(pn, cur) || m.bind(r, i+1)
}

// joinsOK checks node k's join constraints against the partners bound
// before it (the smaller numbers).
func (m *matcher) joinsOK(r *run, pn *pnode, k int32) bool {
	for _, j := range pn.joins {
		if j < k && m.d.Value(r.b[j]) != m.d.Value(r.b[k]) {
			return false
		}
	}
	return true
}

// forbiddenOK applies the forbidden children of pn, bound to document
// node at, as not-exists filters (plain-tree semantics only).
func (m *matcher) forbiddenOK(pn *pnode, at int32) bool {
	if !m.filter {
		return true
	}
	for _, f := range pn.forbidden {
		if m.subMatches(f, at, nil) {
			return false
		}
	}
	return true
}

// subMatches enumerates the valuations of the forbidden sub-pattern
// rooted at pattern node f, anchored at the document node at (f matches
// a child of at, or any proper descendant on a descendant edge). With a
// nil fn it only reports whether one exists; otherwise fn sees each as
// the ids bound to f's nodes in pattern preorder.
func (m *matcher) subMatches(f, at int32, fn func(bound []int32) bool) bool {
	pn := &m.p.nodes[f]
	r := &m.sub
	r.seq, r.found, r.done = m.p.all[f:f+pn.size], false, nil
	if fn != nil {
		r.done = func() bool { return fn(r.b[f : f+pn.size]) }
	}
	r.b[pn.parent] = at
	m.bind(r, 0)
	return r.found
}

// Valuations enumerates the valuations of q in the document, in a
// deterministic order (document preorder at each pattern node,
// depth-first over pattern nodes). A valuation maps every positive
// pattern node to a document node, preserving the pattern's edges,
// label tests, value tests and joins; it need not be injective (two
// pattern nodes may map to the same document node). bound[i] is the id
// of the document node bound to the i-th pattern node in pattern
// preorder (Query.VarPositions), -1 for the nodes of forbidden
// sub-patterns.
// Forbidden sub-patterns exclude assignments under which they match;
// with q.Ordered, sibling pattern nodes must match in strict document
// order. fn returning false stops the enumeration. bound is reused
// between calls.
func (d *Doc) Valuations(q *Query, fn func(bound []int32) bool) error {
	return d.match(q, true, nil, func(m *matcher) bool { return fn(m.main.b) })
}

// CountMatches returns the number of valuations of q in the document.
func CountMatches(q *Query, doc *tree.Node) (int, error) {
	n := 0
	err := Flatten(doc).Valuations(q, func([]int32) bool {
		n++
		return true
	})
	return n, err
}

// Selects reports whether q has at least one valuation in the document
// (the paper's "t is selected by Q").
func Selects(q *Query, doc *tree.Node) (bool, error) {
	found := false
	err := Flatten(doc).Valuations(q, func([]int32) bool {
		found = true
		return false
	})
	return found, err
}
