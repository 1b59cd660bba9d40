// Package fuzzy implements the fuzzy tree model, the central contribution
// of Abiteboul and Senellart (EDBT 2006): a single data tree whose nodes
// carry conditions — conjunctions of probabilistic event literals — plus
// an event probability table. The possible-worlds semantics of a fuzzy
// tree is obtained by enumerating truth assignments of the events: a node
// exists in a world iff its condition and all of its ancestors'
// conditions hold under the assignment.
//
// The model is as expressive as the possible-worlds model (slide 12);
// FromWorlds implements the encoding direction of the theorem and Expand
// the semantics direction.
package fuzzy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/tree"
)

// Node is a fuzzy-tree node: a data-tree node with an attached condition.
// The condition guards the existence of the node (and hence of its whole
// subtree) in a possible world. A nil condition means the node always
// exists when its parent does.
type Node struct {
	Label    string
	Value    string
	Cond     event.Condition
	Children []*Node
}

// NewNode returns an internal fuzzy node with the given label and children.
func NewNode(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// NewLeaf returns a fuzzy leaf with the given label and textual value.
func NewLeaf(label, value string) *Node {
	return &Node{Label: label, Value: value}
}

// WithCond sets the node's condition (normalized) and returns the node,
// enabling fluent construction.
func (n *Node) WithCond(c event.Condition) *Node {
	n.Cond = c.Normalize()
	return n
}

// Add appends children and returns the node.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Label: n.Label, Value: n.Value, Cond: n.Cond.Clone()}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Walk visits the subtree rooted at n in preorder; fn returning false
// stops the walk.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(cur) {
			return
		}
		for i := len(cur.Children) - 1; i >= 0; i-- {
			stack = append(stack, cur.Children[i])
		}
	}
}

// WalkPath visits the subtree in preorder, passing each node's effective
// path condition: the normalized conjunction of the conditions of the
// node and all its ancestors. fn returning false prunes the walk below
// that node (siblings are still visited).
func (n *Node) WalkPath(fn func(n *Node, path event.Condition) bool) {
	if n == nil {
		return
	}
	var rec func(m *Node, acc event.Condition)
	rec = func(m *Node, acc event.Condition) {
		eff := acc.And(m.Cond)
		if !fn(m, eff) {
			return
		}
		for _, c := range m.Children {
			rec(c, eff)
		}
	}
	rec(n, nil)
}

// RemoveChild removes the first occurrence of child (pointer identity).
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// ReplaceChild replaces the first occurrence of old (pointer identity)
// with the given replacements.
func (n *Node) ReplaceChild(old *Node, repl ...*Node) bool {
	for i, c := range n.Children {
		if c == old {
			rest := append([]*Node{}, n.Children[i+1:]...)
			n.Children = append(n.Children[:i], repl...)
			n.Children = append(n.Children, rest...)
			return true
		}
	}
	return false
}

// Tree is a fuzzy tree: a conditioned data tree plus the probability
// table of its events. The root must be unconditioned, so every possible
// world contains at least the root (as in the paper, where the document
// root always exists).
type Tree struct {
	Root  *Node
	Table *event.Table
}

// New returns a fuzzy tree with the given root and an empty event table.
func New(root *Node) *Tree {
	return &Tree{Root: root, Table: event.NewTable()}
}

// Clone returns a deep copy of the fuzzy tree, including its table.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: t.Root.Clone(), Table: t.Table.Clone()}
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.Root.Size() }

// Events returns the sorted distinct events used in the tree's conditions.
func (t *Tree) Events() []event.ID {
	set := make(map[event.ID]struct{})
	t.Root.Walk(func(n *Node) bool {
		for _, l := range n.Cond {
			set[l.Event] = struct{}{}
		}
		return true
	})
	out := make([]event.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks the invariants of the model: structurally valid
// underlying tree, unconditioned root, and every event used in a
// condition present in the table. It reports the first violation in
// document preorder and allocates nothing on a valid tree.
func (t *Tree) Validate() error {
	if t == nil || t.Root == nil {
		return errors.New("fuzzy: nil tree or root")
	}
	if t.Table == nil {
		return errors.New("fuzzy: nil event table")
	}
	if len(t.Root.Cond) > 0 {
		return fmt.Errorf("fuzzy: root must be unconditioned, has %q", t.Root.Cond)
	}
	return t.validateSubtree(t.Root)
}

func (t *Tree) validateSubtree(n *Node) error {
	if n.Label == "" {
		return errors.New("fuzzy: node with empty label")
	}
	if n.Value != "" && len(n.Children) > 0 {
		return fmt.Errorf("fuzzy: mixed content at %q", n.Label)
	}
	// Report the smallest unknown event, as a scan of the sorted event
	// set would.
	var unknown event.ID
	found := false
	for _, l := range n.Cond {
		if (!found || l.Event < unknown) && !t.Table.Has(l.Event) {
			unknown, found = l.Event, true
		}
	}
	if found {
		return fmt.Errorf("fuzzy: condition of %q uses unknown event %q", n.Label, unknown)
	}
	for _, c := range n.Children {
		if err := t.validateSubtree(c); err != nil {
			return err
		}
	}
	return nil
}

// Underlying returns the data tree obtained by stripping all conditions.
func (t *Tree) Underlying() *tree.Node {
	var conv func(n *Node) *tree.Node
	conv = func(n *Node) *tree.Node {
		m := &tree.Node{Label: n.Label, Value: n.Value}
		for _, c := range n.Children {
			m.Children = append(m.Children, conv(c))
		}
		return m
	}
	return conv(t.Root)
}

// FromData lifts a plain data tree into an (unconditioned) fuzzy node
// hierarchy.
func FromData(n *tree.Node) *Node {
	m := &Node{Label: n.Label, Value: n.Value}
	for _, c := range n.Children {
		m.Children = append(m.Children, FromData(c))
	}
	return m
}

// Canonical returns a canonical serialization of the fuzzy subtree rooted
// at n, including conditions: isomorphic fuzzy trees (up to sibling
// order, with bag semantics) share the canonical string.
func Canonical(n *Node) string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	writeCanonical(&b, n)
	return b.String()
}

func writeCanonical(b *strings.Builder, n *Node) {
	b.WriteString(strconv.Quote(n.Label))
	if n.Value != "" {
		b.WriteByte(':')
		b.WriteString(strconv.Quote(n.Value))
	}
	if c := n.Cond.Normalize(); len(c) > 0 {
		b.WriteByte('[')
		b.WriteString(c.String())
		b.WriteByte(']')
	}
	if len(n.Children) == 0 {
		return
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = Canonical(c)
	}
	sort.Strings(parts)
	b.WriteByte('(')
	b.WriteString(strings.Join(parts, ","))
	b.WriteByte(')')
}

// Equal reports whether two fuzzy subtrees are syntactically isomorphic
// (same labels, values, normalized conditions, and child bags). Semantic
// equivalence of fuzzy trees is compared through Expand.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return Canonical(a) == Canonical(b)
}

// Format renders the fuzzy subtree in a textual form extending the tree
// package's format with bracketed conditions:
//
//	A(B[w1 !w2]:foo, C(D[w2]))
func Format(n *Node) string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	writeText(&b, n)
	return b.String()
}

func writeText(b *strings.Builder, n *Node) {
	b.WriteString(quoteIfNeeded(n.Label))
	if c := n.Cond.Normalize(); len(c) > 0 {
		b.WriteByte('[')
		b.WriteString(c.String())
		b.WriteByte(']')
	}
	if n.Value != "" {
		b.WriteByte(':')
		b.WriteString(quoteIfNeeded(n.Value))
	}
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			writeText(b, c)
		}
		b.WriteByte(')')
	}
}

func quoteIfNeeded(s string) string {
	for _, r := range s {
		ok := r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return strconv.Quote(s)
		}
	}
	if s == "" {
		return strconv.Quote(s)
	}
	return s
}

// String implements fmt.Stringer for fuzzy trees, rendering the tree and
// its table.
func (t *Tree) String() string {
	return fmt.Sprintf("%s with %s", Format(t.Root), t.Table)
}
