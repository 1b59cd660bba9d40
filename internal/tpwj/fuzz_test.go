package tpwj_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
)

// byteStream reads a fuzz input byte by byte; bytes past the end read
// as zero, so every input decodes.
type byteStream struct {
	data []byte
	cur  int
}

func (s *byteStream) next() int {
	s.cur++
	if s.cur <= len(s.data) {
		return int(s.data[s.cur-1])
	}
	return 0
}

var (
	fuzzLabels = []string{"a", "b", "c"}
	fuzzValues = []string{"", "x", "y"}
)

// decodeFuzzTree decodes a fuzzy tree of at most 12 nodes over at most
// 6 events, with probabilities from the stream including 0 and 1.
func decodeFuzzTree(s *byteStream) *fuzzy.Tree {
	nEvents := 1 + s.next()%6
	tab := event.NewTable()
	ids := make([]event.ID, nEvents)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("w%d", i))
		tab.MustSet(ids[i], float64(s.next())/255)
	}
	root := &fuzzy.Node{Label: "a"}
	nodes := []*fuzzy.Node{root}
	for n := s.next() % 12; n > 0; n-- {
		parent := nodes[s.next()%len(nodes)]
		parent.Value = "" // internal nodes must not carry values
		child := &fuzzy.Node{Label: fuzzLabels[s.next()%3], Value: fuzzValues[s.next()%3]}
		var c event.Condition
		for lits := s.next() % 3; lits > 0; lits-- {
			b := s.next()
			c = append(c, event.Literal{Event: ids[(b&0x7f)%nEvents], Neg: b&0x80 != 0})
		}
		child.Cond = c.Normalize()
		parent.Children = append(parent.Children, child)
		nodes = append(nodes, child)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// decodeFuzzQuery draws a query of at most five pattern nodes from the
// productions of the language: child and descendant edges, wildcards,
// value tests, variables with a join, sibling order, and forbidden
// sub-patterns (variable-free and not nested, as Validate requires).
func decodeFuzzQuery(s *byteStream) *tpwj.Query {
	var vars []string
	var node func(depth int, forbidden bool) *tpwj.PNode
	node = func(depth int, forbidden bool) *tpwj.PNode {
		p := tpwj.NewPNode(append(fuzzLabels, tpwj.Wildcard)[s.next()%4])
		if v := s.next() % 4; v > 0 && v < 3 {
			p.WithValue(fuzzValues[v])
		}
		if s.next()%3 == 0 {
			p.Descendant()
		}
		if !forbidden && s.next()%2 == 0 {
			p.WithVar(fmt.Sprintf("v%d", len(vars)))
			vars = append(vars, p.Var)
		}
		if depth < 2 {
			for kids := s.next() % (3 - depth); kids > 0; kids-- {
				negate := !forbidden && s.next()%4 == 0
				c := node(depth+1, forbidden || negate)
				if negate {
					c.Forbid()
				}
				p.Add(c)
			}
		}
		return p
	}
	q := tpwj.NewQuery(node(0, false))
	q.Ordered = s.next()%4 == 0
	if len(vars) >= 2 && s.next()%2 == 0 {
		q.AddJoin(vars[s.next()%len(vars)], vars[s.next()%len(vars)])
	}
	return q
}

// refCount counts the valuations of q in doc the slow, obvious way:
// recursion over the pointer tree, a map for the bindings, and every
// constraint checked on the complete assignment only. It shares no
// code with the matcher.
func refCount(q *tpwj.Query, doc *tree.Node) int {
	order := map[*tree.Node]int{}
	doc.Walk(func(n *tree.Node) bool { order[n] = len(order); return true })
	candidates := func(p *tpwj.PNode, anchor *tree.Node) []*tree.Node {
		var out []*tree.Node
		for _, c := range anchor.Children {
			if !p.Desc {
				out = append(out, c)
				continue
			}
			c.Walk(func(n *tree.Node) bool { out = append(out, n); return true })
		}
		return out
	}
	local := func(p *tpwj.PNode, n *tree.Node) bool {
		return (p.Label == tpwj.Wildcard || p.Label == n.Label) && (!p.HasValue || p.Value == n.Value)
	}
	// exists reports whether the (positive, join-free) sub-pattern p
	// matches at n.
	var exists func(p *tpwj.PNode, n *tree.Node) bool
	exists = func(p *tpwj.PNode, n *tree.Node) bool {
		if !local(p, n) {
			return false
		}
		for _, pc := range p.Children {
			found := false
			for _, c := range candidates(pc, n) {
				found = found || exists(pc, c)
			}
			if !found {
				return false
			}
		}
		return true
	}
	var positive []*tpwj.PNode
	parent := map[*tpwj.PNode]*tpwj.PNode{}
	var collect func(p *tpwj.PNode)
	collect = func(p *tpwj.PNode) {
		positive = append(positive, p)
		for _, c := range p.Children {
			if !c.Forbidden {
				parent[c] = p
				collect(c)
			}
		}
	}
	collect(q.Root)
	bound := map[*tpwj.PNode]*tree.Node{}
	valid := func() bool {
		for p, n := range bound {
			if !local(p, n) {
				return false
			}
			last := -1
			for _, pc := range p.Children {
				if pc.Forbidden {
					for _, c := range candidates(pc, n) {
						if exists(pc, c) {
							return false
						}
					}
				} else if q.Ordered {
					if order[bound[pc]] <= last {
						return false
					}
					last = order[bound[pc]]
				}
			}
		}
		vars := q.Vars()
		for _, j := range q.Joins {
			if bound[vars[j.Left]].Value != bound[vars[j.Right]].Value {
				return false
			}
		}
		return true
	}
	count := 0
	var assign func(i int)
	assign = func(i int) {
		if i == len(positive) {
			if valid() {
				count++
			}
			return
		}
		p := positive[i]
		var cands []*tree.Node
		switch {
		case parent[p] != nil:
			cands = candidates(p, bound[parent[p]])
		case p.Desc:
			doc.Walk(func(n *tree.Node) bool { cands = append(cands, n); return true })
		default:
			cands = []*tree.Node{doc}
		}
		for _, c := range cands {
			bound[p] = c
			assign(i + 1)
		}
		delete(bound, p)
	}
	assign(0)
	return count
}

// FuzzEvalFuzzyDifferential checks the paper's commutation theorem on
// random small documents and queries: evaluating on the fuzzy tree
// equals evaluating on every possible world (and never panics, which
// is all an ordered query can be held to). Both sides run the
// package's one matcher (symbolically, and with forbidden sub-patterns
// as filters), so the valuation count on the underlying tree is also
// compared with refCount, and each input is evaluated twice more on one
// Doc, which must change nothing. The checked-in corpus under testdata/fuzz
// runs as regular test cases; `go test -fuzz=FuzzEvalFuzzyDifferential`
// explores further.
func FuzzEvalFuzzyDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 128, 64, 5, 0, 1, 1, 1, 0x00, 0, 2, 2, 0, 1, 0, 0, 1, 2, 0x81, 1, 1, 1, 0, 3, 0, 1, 0, 2})
	f.Add([]byte{5, 0, 255, 30, 200, 100, 60, 11, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 0x83, 0x02, 3, 0, 2, 2, 4, 1, 0, 1, 5, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteStream{data: data}
		ft := decodeFuzzTree(s)
		q := decodeFuzzQuery(s)
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid query %s: %v", tpwj.FormatQuery(q), err)
		}
		desc := fmt.Sprintf("%s on %s", tpwj.FormatQuery(q), ft)

		under := ft.Underlying()
		got, err := tpwj.CountMatches(q, under)
		if err != nil {
			t.Fatalf("%s: CountMatches: %v", desc, err)
		}
		if want := refCount(q, under); got != want {
			t.Errorf("%s: %d valuations on the underlying tree, reference counts %d", desc, got, want)
		}

		direct, err := tpwj.EvalFuzzy(q, ft)
		if err != nil {
			t.Fatalf("%s: EvalFuzzy: %v", desc, err)
		}
		// A Doc is shared by every reader of a warehouse version:
		// evaluating twice on one must give the fresh flatten's answers
		// both times.
		d := tpwj.FlattenFuzzy(ft)
		for run := 1; run <= 2; run++ {
			again, err := d.Exact(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: Exact on a reused Doc: %v", desc, err)
			}
			if diff := diffAnswers(again, direct); diff != "" {
				t.Errorf("%s: evaluation %d on one Doc: %s", desc, run, diff)
			}
		}
		if q.Ordered {
			// The worlds model is unordered: Expand merges worlds that
			// differ only in sibling order, so document order — and with
			// it an ordered query — is defined on the fuzzy tree alone.
			return
		}
		pw, err := ft.Expand()
		if err != nil {
			t.Fatalf("%s: Expand: %v", desc, err)
		}
		viaWorlds, err := tpwj.EvalWorlds(q, pw, tpwj.MinimalSubtree)
		if err != nil {
			t.Fatalf("%s: EvalWorlds: %v", desc, err)
		}
		if len(direct) != viaWorlds.Len() {
			t.Fatalf("%s: %d answers on the fuzzy tree, %d over the worlds", desc, len(direct), viaWorlds.Len())
		}
		for _, a := range direct {
			if want := viaWorlds.ProbOf(a.Tree); math.Abs(a.P-want) > 1e-9 {
				t.Errorf("%s: P(%s) = %.17g on the fuzzy tree, %.17g over the worlds", desc, tree.Format(a.Tree), a.P, want)
			}
		}
	})
}
