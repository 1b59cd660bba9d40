// Package view implements materialized views over probabilistic XML:
// a named TPWJ (or XPath) query whose answer set — answer trees,
// condition DNFs and exact probabilities — is kept materialized and
// incrementally maintained across updates, instead of being recomputed
// from scratch after every write.
//
// The cost model follows the rest of the system: finding the answers
// of a query (the symbolic pass, tree-pattern matching) is cheap, and
// computing each answer's exact probability (ProbDNF, #P-hard in
// general) is the expensive part. Maintenance therefore has three
// tiers, chosen per update by a conservative overlap analysis between
// the update's structural footprint (update.FuzzyStats) and the view's
// match witnesses:
//
//   - Skip: the update provably cannot have changed the view — no
//     inserted label is tested by the query (and the query has no
//     wildcard), and no deletion target lies on a witness path of any
//     answer. The previous state is reused as is.
//
//   - Incremental: the update may have changed the view. The symbolic
//     pass is re-run on the new tree and each answer's condition is
//     compared against the stored state; answers whose canonical
//     condition is unchanged keep their stored probability (event
//     probabilities never change once minted), and only new or changed
//     conditions go back through the probability engine.
//
//   - Full recompute: the overlap analysis is inconclusive — the query
//     uses negation or sibling order (both non-monotone under
//     structural change), or the update carries no footprint (e.g.
//     simplification rewrote the whole tree). EvalFuzzy runs from
//     scratch.
//
// The soundness of Skip for positive unordered queries rests on three
// facts: an update never changes the probability of an existing event;
// a new valuation must map at least one pattern node to an inserted
// node (so its label is tested by the query or matched by a wildcard);
// and a deletion only changes conditions, duplicates structure, or
// removes structure at or below its target — and any answer involved
// there has the target's label path among its witness paths, because
// witness sets are closed under ancestors.
//
// A View value is immutable: Maintain returns a new View and never
// mutates the receiver, so readers may hold a View while maintenance
// is in flight (the warehouse serves such reads marked stale).
package view

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Definition is the registered (and journaled) identity of a view: its
// name and the query it materializes. The answer set itself is derived
// state and is never persisted.
type Definition struct {
	// Name identifies the view within its document.
	Name string `json:"name"`
	// Query is the query text, in the syntax named by Syntax.
	Query string `json:"query"`
	// Syntax is "tpwj" (default when empty) or "xpath".
	Syntax string `json:"syntax,omitempty"`
}

// Compile parses and validates the definition's query.
func (d Definition) Compile() (*tpwj.Query, error) {
	var (
		q   *tpwj.Query
		err error
	)
	switch d.Syntax {
	case "", "tpwj":
		q, err = tpwj.ParseQuery(d.Query)
	case "xpath":
		q, err = xpath.Compile(d.Query)
	default:
		return nil, fmt.Errorf("view: unknown syntax %q (want tpwj or xpath)", d.Syntax)
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Outcome reports which maintenance tier a Maintain call took.
type Outcome int

const (
	// Skipped: the overlap analysis proved the update cannot affect
	// the view; the previous state was reused without any evaluation.
	Skipped Outcome = iota
	// Incremental: the symbolic pass re-ran and only answers with new
	// or changed conditions went through the probability engine.
	Incremental
	// Full: the answer set was recomputed from scratch (inconclusive
	// overlap analysis, or first materialization).
	Full
)

// String returns "skipped", "incremental" or "full".
func (o Outcome) String() string {
	switch o {
	case Skipped:
		return "skipped"
	case Incremental:
		return "incremental"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result reports what one Maintain call did: the tier taken and, for
// the incremental tier, how many answer probabilities were reused
// versus recomputed — the affected-answer ratio the warehouse exposes
// on /stats.
type Result struct {
	Outcome Outcome
	// Reused counts answers whose stored probability was kept because
	// their canonical condition did not change.
	Reused int
	// Recomputed counts answers whose probability went through the
	// engine (all answers on the Full tier).
	Recomputed int
}

// Delta is the structural footprint of one update, as recorded by
// update.FuzzyStats. A nil *Delta means "unknown footprint" and forces
// a full recompute.
type Delta struct {
	// InsertedLabels are the distinct labels of inserted nodes.
	InsertedLabels []string
	// DeleteTargetPaths are the rooted label paths ("/A/B") of
	// deletion targets.
	DeleteTargetPaths []string
}

// View is one materialized state: the definition, the compiled query,
// and the answers with their probabilities, plus the witness data the
// overlap analysis needs. Views are immutable — Materialize and
// Maintain build fresh values — so a View handed to a reader stays
// valid while the next state is being computed.
type View struct {
	def Definition
	q   *tpwj.Query

	// answers is the materialized answer set, ordered like EvalFuzzy
	// output (descending probability, then canonical form).
	answers []tpwj.ProbAnswer

	// byKey indexes answers by canonical answer-tree string; condKey
	// holds each answer's canonical condition string. Together they
	// are the diff state of the incremental tier.
	byKey   map[string]int
	condKey []string

	// witnessPaths is the set of rooted label paths of every node of
	// every answer tree. Answer trees are minimal subtrees (matched
	// nodes plus all ancestors), so the set is ancestor-closed: if any
	// valuation passes through a document position, that position's
	// label path is in the set.
	witnessPaths map[string]bool

	// conclusive reports whether the overlap analysis applies: the
	// query is positive (no forbidden subtrees) and unordered. Both
	// negation and sibling order make answers non-monotone under
	// structural change, defeating the witness argument.
	conclusive bool
	// labels is the set of concrete label tests of the query;
	// wildcard reports whether any pattern node tests "*".
	labels   map[string]bool
	wildcard bool
}

// Def returns the view's definition.
func (v *View) Def() Definition { return v.def }

// Query returns the compiled query.
func (v *View) Query() *tpwj.Query { return v.q }

// Answers returns the materialized answer set, ordered by descending
// probability then canonical form. The slice and the trees inside are
// shared: callers must not mutate them.
func (v *View) Answers() []tpwj.ProbAnswer { return v.answers }

// keyed pairs an answer with its canonical strings, computed exactly
// once per answer per pass and threaded through sorting, diffing and
// assembly.
type keyed struct {
	a    tpwj.ProbAnswer
	key  string // canonical answer-tree string
	cond string // canonical condition string
}

func newKeyed(a tpwj.ProbAnswer) keyed {
	return keyed{a: a, key: tree.Canonical(a.Tree), cond: condString(&a)}
}

// Materialize evaluates the definition's query on the document from
// scratch and returns the resulting view state. q must be the compiled
// form of def (see Definition.Compile); passing it in lets callers
// compile once at registration and reuse across maintenance passes.
func Materialize(def Definition, q *tpwj.Query, ft *fuzzy.Tree) (*View, error) {
	doc, err := tpwj.FlattenValid(ft)
	if err != nil {
		return nil, err
	}
	return MaterializeCtx(context.Background(), def, q, doc)
}

// MaterializeCtx is Materialize on the document's flat form (built by
// tpwj.FlattenFuzzy from a valid tree), honoring context cancellation:
// the tree-pattern match and the per-answer probability evaluations
// poll ctx and abort with its error, so a request deadline stops a full
// recompute mid-flight.
func MaterializeCtx(ctx context.Context, def Definition, q *tpwj.Query, doc *tpwj.Doc) (*View, error) {
	answers, err := doc.Exact(ctx, q)
	if err != nil {
		return nil, err
	}
	ks := make([]keyed, len(answers))
	for i, a := range answers {
		ks[i] = newKeyed(a)
	}
	return assemble(def, q, ks), nil
}

// Maintain brings the view up to date with the post-update document
// ft, using the update's footprint d to decide the tier. It returns
// the successor state (possibly the receiver itself, on the Skip tier)
// and what it did; the receiver is never mutated. The Skip tier does
// not look at ft.
func (v *View) Maintain(ft *fuzzy.Tree, d *Delta) (*View, Result, error) {
	if v.skips(d) {
		return v, Result{Outcome: Skipped}, nil
	}
	doc, err := tpwj.FlattenValid(ft)
	if err != nil {
		return nil, Result{}, err
	}
	return v.MaintainCtx(context.Background(), doc, d)
}

// MaintainCtx is Maintain on the post-update document's flat form,
// honoring context cancellation. The Skip tier never consults the
// context or the document (it does no evaluation); the other tiers
// abort with the context's error, leaving the receiver — still the
// current state — untouched.
func (v *View) MaintainCtx(ctx context.Context, doc *tpwj.Doc, d *Delta) (*View, Result, error) {
	if v.skips(d) {
		return v, Result{Outcome: Skipped}, nil
	}
	if d == nil || !v.conclusive {
		nv, err := MaterializeCtx(ctx, v.def, v.q, doc)
		if err != nil {
			return nil, Result{}, err
		}
		return nv, Result{Outcome: Full, Recomputed: len(nv.answers)}, nil
	}
	return v.maintainIncremental(ctx, doc)
}

// skips reports whether the overlap analysis proves the footprint
// cannot affect the view.
func (v *View) skips(d *Delta) bool {
	return d != nil && v.conclusive && !v.affected(d)
}

// maintainIncremental re-runs the symbolic pass and pays for the
// probability engine only on answers whose canonical condition differs
// from the stored state. Reusing a stored probability is sound because
// event probabilities are immutable once minted: an identical
// canonical DNF over the (possibly grown) event table denotes the same
// probability.
func (v *View) maintainIncremental(ctx context.Context, doc *tpwj.Doc) (*View, Result, error) {
	sym, err := doc.Symbolic(ctx, v.q)
	if err != nil {
		return nil, Result{}, err
	}
	res := Result{Outcome: Incremental}
	ks := make([]keyed, 0, len(sym))
	for i := range sym {
		k := newKeyed(sym[i])
		if j, ok := v.byKey[k.key]; ok && v.condKey[j] == k.cond {
			k.a.P = v.answers[j].P
			res.Reused++
		} else {
			p, err := k.a.Prob(ctx, doc.Tree().Table)
			if err != nil {
				return nil, Result{}, err
			}
			res.Recomputed++
			if p == 0 {
				continue // appears in no world; not an answer
			}
			k.a.P = p
		}
		ks = append(ks, k)
	}
	// Order like EvalFuzzy output: descending probability, then
	// canonical form (precomputed — never re-derived in the comparator).
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].a.P != ks[j].a.P {
			return ks[i].a.P > ks[j].a.P
		}
		return ks[i].key < ks[j].key
	})
	return assemble(v.def, v.q, ks), res, nil
}

// affected reports whether the footprint can touch the view: an
// inserted label the query tests (or any insert under a wildcard
// query), or a deletion target whose label path carries a witness.
func (v *View) affected(d *Delta) bool {
	for _, l := range d.InsertedLabels {
		if v.wildcard || v.labels[l] {
			return true
		}
	}
	for _, p := range d.DeleteTargetPaths {
		if v.witnessPaths[p] {
			return true
		}
	}
	return false
}

// assemble builds the immutable view state around a computed answer
// set (already ordered like EvalFuzzy output, with canonical strings
// precomputed).
func assemble(def Definition, q *tpwj.Query, ks []keyed) *View {
	v := &View{
		def:          def,
		q:            q,
		answers:      make([]tpwj.ProbAnswer, len(ks)),
		byKey:        make(map[string]int, len(ks)),
		condKey:      make([]string, len(ks)),
		witnessPaths: make(map[string]bool),
		conclusive:   !q.HasNegation() && !q.Ordered,
		labels:       make(map[string]bool),
	}
	q.Root.Walk(func(p *tpwj.PNode) bool {
		if p.Label == tpwj.Wildcard {
			v.wildcard = true
		} else {
			v.labels[p.Label] = true
		}
		return true
	})
	for i, k := range ks {
		v.answers[i] = k.a
		v.byKey[k.key] = i
		v.condKey[i] = k.cond
		addWitnessPaths(v.witnessPaths, k.a.Tree)
	}
	return v
}

// condString returns the canonical condition string of an answer:
// the normalized DNF for positive queries, the formula rendering
// otherwise. EvalFuzzySymbolic already normalizes the DNF it returns.
func condString(a *tpwj.ProbAnswer) string {
	if a.Cond != nil {
		return a.Cond.String()
	}
	if a.Formula != nil {
		return a.Formula.String()
	}
	return ""
}

// addWitnessPaths adds the rooted label path of every node of the
// answer tree to the set.
func addWitnessPaths(set map[string]bool, root *tree.Node) {
	var rec func(n *tree.Node, prefix string)
	rec = func(n *tree.Node, prefix string) {
		p := prefix + "/" + n.Label
		set[p] = true
		for _, c := range n.Children {
			rec(c, p)
		}
	}
	rec(root, "")
}
