// Package tpwj implements the tree-pattern-with-join (TPWJ) queries of
// Abiteboul and Senellart (EDBT 2006), the paper's query language (a
// standard subset of XQuery).
//
// A query is a pattern tree whose nodes carry a label test (possibly the
// wildcard "*"), an optional value-equality test, and an optional
// variable; edges are child or descendant edges; join constraints require
// the values of two variables to be equal. The answer of a query for a
// valuation is the minimal subtree of the document containing all matched
// nodes.
//
// The package evaluates queries over plain data trees, over
// possible-worlds sets (the semantic baseline), and over fuzzy trees (the
// paper's contribution, with exact answer probabilities).
package tpwj

import (
	"errors"
	"fmt"
	"sort"
)

// Wildcard is the label test matching any label.
const Wildcard = "*"

// PNode is a node of a query pattern.
type PNode struct {
	// Label is the element-name test; Wildcard ("*") matches any label.
	Label string
	// Value, when HasValue is set, requires the matched node's textual
	// value to equal Value. Internal document nodes have the empty value.
	Value    string
	HasValue bool
	// Var optionally binds the matched node to a variable name (without
	// the leading '$'), usable in joins and as an update target.
	Var string
	// Desc selects the axis of the edge entering this pattern node:
	// child (false) or descendant (true). On the pattern root, Desc
	// false anchors the match at the document root; Desc true lets the
	// root pattern node match any document node.
	Desc bool
	// Forbidden marks a negated sub-pattern (extension from the paper's
	// perspectives slide): a valuation of the enclosing pattern is valid
	// only if this subtree has NO valuation anchored at the parent's
	// image. Forbidden subtrees bind no variables and may not nest
	// further negation. Written "!" in the textual syntax.
	Forbidden bool
	// Children are the sub-patterns.
	Children []*PNode
}

// NewPNode returns a pattern node with the given label test and children.
func NewPNode(label string, children ...*PNode) *PNode {
	return &PNode{Label: label, Children: children}
}

// WithValue adds a value-equality test and returns the node.
func (p *PNode) WithValue(v string) *PNode {
	p.Value, p.HasValue = v, true
	return p
}

// WithVar binds the node to a variable and returns the node.
func (p *PNode) WithVar(name string) *PNode {
	p.Var = name
	return p
}

// Descendant marks the edge entering this node as a descendant edge and
// returns the node.
func (p *PNode) Descendant() *PNode {
	p.Desc = true
	return p
}

// Forbid marks this node as a negated sub-pattern and returns the node.
func (p *PNode) Forbid() *PNode {
	p.Forbidden = true
	return p
}

// Add appends sub-patterns and returns the node.
func (p *PNode) Add(children ...*PNode) *PNode {
	p.Children = append(p.Children, children...)
	return p
}

// Walk visits the pattern in preorder; fn returning false stops the walk.
func (p *PNode) Walk(fn func(*PNode) bool) {
	if p == nil {
		return
	}
	stack := []*PNode{p}
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

// Clone returns a deep copy of the pattern.
func (p *PNode) Clone() *PNode {
	if p == nil {
		return nil
	}
	c := &PNode{Label: p.Label, Value: p.Value, HasValue: p.HasValue,
		Var: p.Var, Desc: p.Desc, Forbidden: p.Forbidden}
	for _, ch := range p.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Size returns the number of pattern nodes.
func (p *PNode) Size() int {
	if p == nil {
		return 0
	}
	s := 1
	for _, c := range p.Children {
		s += c.Size()
	}
	return s
}

// Join requires the matched values of two variables to be equal.
type Join struct {
	Left, Right string
}

// Query is a TPWJ query: a pattern with join constraints.
type Query struct {
	Root  *PNode
	Joins []Join
	// Ordered requires sibling pattern nodes to match in strict
	// document order ("some limited order", perspectives slide). The
	// probabilistic core model is unordered; ordered queries are an
	// extension for querying documents whose stored child order is
	// meaningful, and are rejected by update transactions.
	Ordered bool
}

// NewQuery returns a query with the given pattern root and no joins.
func NewQuery(root *PNode) *Query { return &Query{Root: root} }

// AddJoin appends a join constraint and returns the query.
func (q *Query) AddJoin(left, right string) *Query {
	q.Joins = append(q.Joins, Join{Left: left, Right: right})
	return q
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	return &Query{Root: q.Root.Clone(), Joins: append([]Join{}, q.Joins...), Ordered: q.Ordered}
}

// HasNegation reports whether the pattern contains forbidden subtrees.
func (q *Query) HasNegation() bool {
	found := false
	q.Root.Walk(func(p *PNode) bool {
		if p.Forbidden {
			found = true
			return false
		}
		return true
	})
	return found
}

// Size returns the number of pattern nodes.
func (q *Query) Size() int { return q.Root.Size() }

// Vars returns the pattern nodes bound to variables, keyed by variable
// name.
func (q *Query) Vars() map[string]*PNode {
	vars := make(map[string]*PNode)
	q.Root.Walk(func(p *PNode) bool {
		if p.Var != "" {
			vars[p.Var] = p
		}
		return true
	})
	return vars
}

// VarPositions returns, for every variable, the number of the pattern
// node binding it in pattern preorder: its index in a flat valuation
// (Doc.Valuations).
func (q *Query) VarPositions() map[string]int {
	pos := make(map[string]int)
	i := 0
	q.Root.Walk(func(p *PNode) bool {
		if p.Var != "" {
			pos[p.Var] = i
		}
		i++
		return true
	})
	return pos
}

// Validate checks that the query is well formed: non-empty label tests,
// variables bound at most once, joins referring to bound variables, and
// forbidden subtrees that are variable-free, join-free and not nested.
func (q *Query) Validate() error {
	if q == nil || q.Root == nil {
		return errors.New("tpwj: nil query or pattern root")
	}
	if q.Root.Forbidden {
		return errors.New("tpwj: pattern root cannot be forbidden")
	}
	seen := make(map[string]bool)
	var err error
	var walk func(p *PNode, inForbidden bool) bool
	walk = func(p *PNode, inForbidden bool) bool {
		if p.Label == "" {
			err = errors.New("tpwj: pattern node with empty label test")
			return false
		}
		if inForbidden && p.Forbidden {
			err = errors.New("tpwj: nested negation is not supported")
			return false
		}
		if p.Var != "" {
			if inForbidden || p.Forbidden {
				err = fmt.Errorf("tpwj: variable $%s bound inside a forbidden subtree", p.Var)
				return false
			}
			if seen[p.Var] {
				err = fmt.Errorf("tpwj: variable $%s bound twice", p.Var)
				return false
			}
			seen[p.Var] = true
		}
		for _, c := range p.Children {
			if !walk(c, inForbidden || p.Forbidden) {
				return false
			}
		}
		return true
	}
	walk(q.Root, false)
	if err != nil {
		return err
	}
	for _, j := range q.Joins {
		if !seen[j.Left] {
			return fmt.Errorf("tpwj: join references unbound variable $%s", j.Left)
		}
		if !seen[j.Right] {
			return fmt.Errorf("tpwj: join references unbound variable $%s", j.Right)
		}
	}
	return nil
}

// VarNames returns the sorted variable names bound by the query.
func (q *Query) VarNames() []string {
	vars := q.Vars()
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
