// Package gen builds deterministic synthetic workloads for the
// experiments: random data trees, fuzzy trees, queries guaranteed to
// match, and update streams with controllable dependency structure. The
// paper's demo used hand-curated web data that is no longer available;
// these generators produce documents with the same tunable
// characteristics (size, fan-out, number of events, condition
// complexity) that drive the paper's complexity claims.
//
// All generators are pure functions of their *rand.Rand source, so every
// experiment is reproducible from a seed.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
)

// TreeConfig controls random data-tree generation.
type TreeConfig struct {
	// Depth is the maximum tree height below the root.
	Depth int
	// MaxFanout is the maximum number of children per internal node
	// (at least 1 child is generated while depth remains).
	MaxFanout int
	// Labels is the label alphabet; defaults to A…F.
	Labels []string
	// Values is the leaf-value alphabet; defaults to a small word list.
	// The empty string is allowed and yields a valueless leaf.
	Values []string
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 4
	}
	if len(c.Labels) == 0 {
		c.Labels = []string{"A", "B", "C", "D", "E", "F"}
	}
	if len(c.Values) == 0 {
		c.Values = []string{"", "foo", "bar", "nee", "v1", "v2"}
	}
	return c
}

// Tree generates a random data tree.
func Tree(r *rand.Rand, cfg TreeConfig) *tree.Node {
	cfg = cfg.withDefaults()
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		n := &tree.Node{Label: cfg.Labels[r.Intn(len(cfg.Labels))]}
		if depth <= 0 || r.Intn(4) == 0 {
			n.Value = cfg.Values[r.Intn(len(cfg.Values))]
			return n
		}
		k := 1 + r.Intn(cfg.MaxFanout)
		for i := 0; i < k; i++ {
			n.Children = append(n.Children, build(depth-1))
		}
		return n
	}
	root := build(cfg.Depth)
	if root.IsLeaf() {
		root.Value = ""
		root.Children = []*tree.Node{{Label: cfg.Labels[0], Value: cfg.Values[r.Intn(len(cfg.Values))]}}
	}
	return root
}

// TreeOfSize generates a random data tree with exactly n nodes (n ≥ 1):
// nodes are attached one by one under uniformly chosen existing parents,
// so the shape is a random recursive tree.
func TreeOfSize(r *rand.Rand, n int, cfg TreeConfig) *tree.Node {
	cfg = cfg.withDefaults()
	root := &tree.Node{Label: cfg.Labels[0]}
	nodes := []*tree.Node{root}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		parent.Value = "" // parents must not carry values
		child := &tree.Node{
			Label: cfg.Labels[r.Intn(len(cfg.Labels))],
			Value: cfg.Values[r.Intn(len(cfg.Values))],
		}
		parent.Children = append(parent.Children, child)
		nodes = append(nodes, child)
	}
	return root
}

// FuzzyConfig controls random fuzzy-tree generation.
type FuzzyConfig struct {
	Tree TreeConfig
	// Events is the number of distinct probabilistic events.
	Events int
	// CondProb is the probability that a non-root node carries a
	// condition at all.
	CondProb float64
	// MaxLits is the maximum number of literals per condition.
	MaxLits int
	// EventPrefix names the events (default "w": w1, w2, …).
	EventPrefix string
}

func (c FuzzyConfig) withDefaults() FuzzyConfig {
	c.Tree = c.Tree.withDefaults()
	if c.Events <= 0 {
		c.Events = 4
	}
	if c.CondProb == 0 {
		c.CondProb = 0.5
	}
	if c.MaxLits <= 0 {
		c.MaxLits = 2
	}
	if c.EventPrefix == "" {
		c.EventPrefix = "w"
	}
	return c
}

// Fuzzy generates a random fuzzy tree: a random data tree whose non-root
// nodes carry random conditions over a fresh event table with
// probabilities in (0.05, 0.95).
func Fuzzy(r *rand.Rand, cfg FuzzyConfig) *fuzzy.Tree {
	cfg = cfg.withDefaults()
	tab := event.NewTable()
	ids := make([]event.ID, cfg.Events)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("%s%d", cfg.EventPrefix, i+1))
		tab.MustSet(ids[i], 0.05+0.9*r.Float64())
	}
	data := Tree(r, cfg.Tree)
	root := fuzzy.FromData(data)
	first := true
	root.Walk(func(n *fuzzy.Node) bool {
		if first {
			first = false // root stays unconditioned
			return true
		}
		if r.Float64() >= cfg.CondProb {
			return true
		}
		k := 1 + r.Intn(cfg.MaxLits)
		var c event.Condition
		for i := 0; i < k; i++ {
			l := event.Literal{Event: ids[r.Intn(len(ids))], Neg: r.Intn(2) == 0}
			c = append(c, l)
		}
		n.Cond = c.Normalize()
		return true
	})
	return &fuzzy.Tree{Root: root, Table: tab}
}

// Sections generates a document shaped like the repository benchmark's
// query_cold documents (benchmark/workloads.go): a root A of n keyed
// sections S(K:s<i>, T:<two of 64 words>, C:c<i·7 mod n/8>), half of
// the sections and three titles in ten conditioned on one of 16 events
// (a title literal negated one time in three). It has 4n+1 nodes.
func Sections(r *rand.Rand, n int) *fuzzy.Tree {
	tab := event.NewTable()
	ids := make([]event.ID, 16)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("e%d", i+1))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	root := fuzzy.NewNode("A")
	cats := max(1, n/8)
	for i := 0; i < n; i++ {
		s := fuzzy.NewNode("S")
		if r.Intn(2) == 0 {
			s.WithCond(event.Cond(event.Pos(ids[r.Intn(len(ids))])))
		}
		t := fuzzy.NewLeaf("T", fmt.Sprintf("kw%02d kw%02d", r.Intn(64), r.Intn(64)))
		if r.Intn(10) < 3 {
			t.WithCond(event.Cond(event.Literal{Event: ids[r.Intn(len(ids))], Neg: r.Intn(3) == 0}))
		}
		s.Add(fuzzy.NewLeaf("K", fmt.Sprintf("s%d", i)), t, fuzzy.NewLeaf("C", fmt.Sprintf("c%d", i*7%cats)))
		root.Add(s)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// MatchingQuery builds a query guaranteed to have at least one valuation
// in doc: it samples a random node and returns the label path from the
// root to it as a chain pattern, binding the final node to variable
// "x". With useDesc, inner steps are randomly replaced by descendant
// edges (which preserves matching).
func MatchingQuery(r *rand.Rand, doc *tree.Node, useDesc bool) *tpwj.Query {
	ix := tree.NewIndex(doc)
	nodes := ix.Nodes()
	target := nodes[r.Intn(len(nodes))]
	path := ix.PathToRoot(target) // target … root

	// Build the chain from the root down.
	var rootP, cur *tpwj.PNode
	for i := len(path) - 1; i >= 0; i-- {
		p := tpwj.NewPNode(path[i].Label)
		if useDesc && cur != nil && r.Intn(3) == 0 {
			p.Descendant()
		}
		if cur == nil {
			rootP = p
		} else {
			cur.Add(p)
		}
		cur = p
	}
	cur.WithVar("x")
	return tpwj.NewQuery(rootP)
}
