package tpwj

import (
	"slices"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/obs"
	"repro/internal/tree"
)

// tpwjFlattens counts the flat forms built: every Flatten and
// FlattenFuzzy call. A published warehouse version is flattened once,
// by its first reader, so on a read-only workload it advances once per
// version read, not once per query.
var tpwjFlattens = obs.Default().Counter("px_tpwj_flattens_total", "documents flattened into the matcher's preorder columns")

// Doc is the flat form of one document, the only form the matcher and
// the evaluators read: nodes are numbered in preorder, and navigation
// is a few int32 columns indexed by that number. The subtree of node i
// is the id range [i, end[i]), so children are reached by end[] hops
// and descendants by counting; labels are interned per document, so a
// label test is an integer comparison. Values are read through the
// source node, which the Doc holds anyway.
//
// A Doc is immutable and describes the tree as it was when flattened;
// evaluation only reads it, so one Doc serves any number of concurrent
// evaluations. A warehouse snapshot keeps the Doc of its version for as
// long as the version lives.
type Doc struct {
	label  []int32 // interned label, an index into names
	parent []int32 // -1 for the root
	end    []int32 // one past the last descendant
	names  []string
	ids    map[string]int32 // label → index into names

	// The source nodes by id; exactly one is set, by Flatten or
	// FlattenFuzzy respectively.
	plain []*tree.Node
	fuzzy []*fuzzy.Node
	// tree is the fuzzy tree a FlattenFuzzy document was built from: its
	// event table gives the answers' probabilities.
	tree *fuzzy.Tree
}

func newDoc(n int) *Doc {
	tpwjFlattens.Add(1)
	return &Doc{
		label:  make([]int32, 0, n),
		parent: make([]int32, 0, n),
		end:    make([]int32, n),
		ids:    make(map[string]int32),
	}
}

// Flatten builds the flat form of a plain data tree (nil flattens to
// the empty document, in which nothing matches).
func Flatten(root *tree.Node) *Doc {
	n := root.Size()
	d := newDoc(n)
	d.plain = make([]*tree.Node, 0, n)
	if root != nil {
		d.addPlain(root, -1)
	}
	return d
}

// FlattenFuzzy builds the flat form of a fuzzy tree's underlying data
// tree, recording the tree for its event table. The tree must be valid
// (fuzzy.Tree.Validate) for the evaluation methods.
func FlattenFuzzy(ft *fuzzy.Tree) *Doc {
	n := ft.Root.Size()
	d := newDoc(n)
	d.fuzzy = make([]*fuzzy.Node, 0, n)
	d.tree = ft
	d.addFuzzy(ft.Root, -1)
	return d
}

// FlattenValid checks the model's invariants (fuzzy.Tree.Validate) and
// flattens the tree: the first step of every evaluation on a fuzzy
// tree.
func FlattenValid(ft *fuzzy.Tree) (*Doc, error) {
	if err := ft.Validate(); err != nil {
		return nil, err
	}
	return FlattenFuzzy(ft), nil
}

// add appends one node in preorder, interning its label, and returns
// its id; the caller sets end[id] once the node's subtree has been
// added.
func (d *Doc) add(label string, parent int32) int32 {
	lid, ok := d.ids[label]
	if !ok {
		lid = int32(len(d.names))
		d.ids[label] = lid
		d.names = append(d.names, label)
	}
	id := int32(len(d.label))
	d.label = append(d.label, lid)
	d.parent = append(d.parent, parent)
	return id
}

func (d *Doc) addPlain(n *tree.Node, parent int32) {
	id := d.add(n.Label, parent)
	d.plain = append(d.plain, n)
	for _, c := range n.Children {
		d.addPlain(c, id)
	}
	d.end[id] = int32(len(d.label))
}

func (d *Doc) addFuzzy(n *fuzzy.Node, parent int32) {
	id := d.add(n.Label, parent)
	d.fuzzy = append(d.fuzzy, n)
	for _, c := range n.Children {
		d.addFuzzy(c, id)
	}
	d.end[id] = int32(len(d.label))
}

// Len returns the number of nodes.
func (d *Doc) Len() int { return len(d.label) }

// Parent returns the id of node id's parent, -1 for the root.
func (d *Doc) Parent(id int32) int32 { return d.parent[id] }

// End returns one past the last id of node id's subtree: the subtree is
// the id range [id, End(id)).
func (d *Doc) End(id int32) int32 { return d.end[id] }

// Label returns the label of node id.
func (d *Doc) Label(id int32) string { return d.names[d.label[id]] }

// Value returns the value of node id (empty on internal nodes).
func (d *Doc) Value(id int32) string {
	if d.fuzzy != nil {
		return d.fuzzy[id].Value
	}
	return d.plain[id].Value
}

// Plain returns the source node of id in a document built by Flatten.
func (d *Doc) Plain(id int32) *tree.Node { return d.plain[id] }

// Fuzzy returns the source node of id in a document built by
// FlattenFuzzy.
func (d *Doc) Fuzzy(id int32) *fuzzy.Node { return d.fuzzy[id] }

// Tree returns the fuzzy tree a document built by FlattenFuzzy was
// flattened from.
func (d *Doc) Tree() *fuzzy.Tree { return d.tree }

// labelled returns the ids of the nodes with the given interned label,
// ascending.
func (d *Doc) labelled(label int32) []int32 {
	n := 0
	for _, l := range d.label {
		if l == label {
			n++
		}
	}
	ids := make([]int32, 0, n)
	for id, l := range d.label {
		if l == label {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// Closure returns the nodes of a valuation's minimal subtree — the
// bound nodes (negative entries of bound are skipped) and all their
// ancestors — as ascending ids, which is document preorder. The result
// reuses buf.
func (d *Doc) Closure(bound, buf []int32) []int32 {
	buf = buf[:0]
	for _, id := range bound {
		for ; id >= 0; id = d.parent[id] {
			buf = append(buf, id)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// Condition returns the normalized conjunction of the conditions of
// the given nodes of a fuzzy document. Over a Closure it is the
// condition under which the valuation exists (the paper's γ).
func (d *Doc) Condition(ids []int32) event.Condition {
	var c event.Condition
	for _, id := range ids {
		c = append(c, d.fuzzy[id].Cond...)
	}
	return c.Normalize()
}

// answer materializes the answer tree over an ancestor-closed ascending
// id set: a fresh tree of exactly those nodes, kept leaves keeping
// their values. The nodes listed in full (WithSubtrees mode) are copied
// with everything below them.
func (d *Doc) answer(ids, full []int32) *tree.Node {
	type open struct {
		id   int32
		node *tree.Node
	}
	var root *tree.Node
	path := make([]open, 0, 8) // the chain from the root to the last node added
	for i := 0; i < len(ids); i++ {
		id := ids[i]
		var n *tree.Node
		if slices.Contains(full, id) {
			n = d.plain[id].Clone()
			for i+1 < len(ids) && ids[i+1] < d.end[id] {
				i++
			}
		} else {
			n = &tree.Node{Label: d.Label(id), Value: d.Value(id)}
		}
		for len(path) > 0 && path[len(path)-1].id != d.parent[id] {
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			root = n
		} else {
			top := path[len(path)-1].node
			top.Children = append(top.Children, n)
		}
		path = append(path, open{id, n})
	}
	return root
}
