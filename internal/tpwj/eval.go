package tpwj

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/obs"
	"repro/internal/tree"
	"repro/internal/worlds"
)

// Eval evaluates the query over a plain data tree and returns the set of
// distinct answers (duplicates from different valuations merged), in
// deterministic order (canonical form).
func Eval(q *Query, doc *tree.Node, mode ResultMode) ([]*tree.Node, error) {
	d := Flatten(doc)
	seen := make(map[string]*tree.Node)
	var ids, full []int32
	err := d.match(q, true, nil, func(m *matcher) bool {
		ids = d.Closure(m.main.b, ids)
		full = full[:0]
		if mode == WithSubtrees {
			for _, k := range m.p.positive {
				if len(m.p.nodes[k].src.Children) == 0 {
					full = append(full, m.main.b[k])
				}
			}
		}
		a := d.answer(ids, full)
		c := tree.Canonical(a)
		if _, ok := seen[c]; !ok {
			seen[c] = a
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*tree.Node, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// EvalWorlds evaluates the query over a possible-worlds set, implementing
// the paper's semantic definition (slide 10): the result is the
// normalization of {(t, p_i) | t ∈ Q(t_i)}. Each entry of the result
// records the probability that the given tree is an answer; the result
// is in general not a distribution.
func EvalWorlds(q *Query, s *worlds.Set, mode ResultMode) (*worlds.Set, error) {
	out := &worlds.Set{}
	for _, w := range s.Worlds {
		answers, err := Eval(q, w.Tree, mode)
		if err != nil {
			return nil, err
		}
		for _, a := range answers {
			out.Add(a, w.P)
		}
	}
	return out.Normalize(), nil
}

// ProbAnswer is one answer of a query over a fuzzy tree: the answer tree,
// the condition under which it appears, and its exact probability.
type ProbAnswer struct {
	// Tree is the answer (a minimal subtree of the underlying document).
	Tree *tree.Node
	// Cond is the disjunction of the condition conjunctions of the
	// valuations producing this answer; the answer appears in exactly
	// the worlds satisfying Cond. For queries with negation, Cond is nil
	// and Formula carries the condition instead.
	Cond event.DNF
	// Formula is the answer condition of a query with forbidden
	// sub-patterns, as a Boolean formula: it carries the ¬(sub-match)
	// parts DNF cannot express. It is nil for positive queries, whose
	// condition is Cond alone.
	Formula event.Formula
	// P is the probability of the answer condition.
	P float64
}

// Prob computes the exact probability of the answer's condition under
// the event table: of Cond for positive queries, of Formula when the
// pattern uses negation (Cond is nil then).
func (a *ProbAnswer) Prob(ctx context.Context, t *event.Table) (float64, error) {
	if a.Cond != nil {
		return t.ProbDNFCtx(ctx, a.Cond)
	}
	return t.ProbFormulaCtx(ctx, a.Formula)
}

// EvalFuzzy evaluates the query directly on a fuzzy tree (slide 13):
// it validates the tree, flattens it and runs Doc.Exact. See Exact for
// the semantics and the order of the answers.
//
// By the commutation theorem, EvalFuzzy(q, ft) agrees with
// EvalWorlds(q, ft.Expand()) — tested property, experiment E3.
func EvalFuzzy(q *Query, ft *fuzzy.Tree) ([]ProbAnswer, error) {
	return EvalFuzzyContext(context.Background(), q, ft)
}

// EvalFuzzyContext is EvalFuzzy with a context: when the context
// carries an obs trace, the symbolic match, DNF compilation and
// probability evaluation stages record spans into it. On a plain
// context it is EvalFuzzy (the span calls are no-ops).
func EvalFuzzyContext(ctx context.Context, q *Query, ft *fuzzy.Tree) ([]ProbAnswer, error) {
	d, err := FlattenValid(ft)
	if err != nil {
		return nil, err
	}
	return d.Exact(ctx, q)
}

// EvalFuzzyMonteCarlo is EvalFuzzy with Monte-Carlo probability
// estimation: it validates and flattens the tree and runs
// Doc.MonteCarlo.
func EvalFuzzyMonteCarlo(q *Query, ft *fuzzy.Tree, samples int, r *rand.Rand) ([]ProbAnswer, error) {
	return EvalFuzzyMonteCarloContext(context.Background(), q, ft, samples, r)
}

// EvalFuzzyMonteCarloContext is EvalFuzzyMonteCarlo with a context,
// traced like EvalFuzzyContext.
func EvalFuzzyMonteCarloContext(ctx context.Context, q *Query, ft *fuzzy.Tree, samples int, r *rand.Rand) ([]ProbAnswer, error) {
	d, err := FlattenValid(ft)
	if err != nil {
		return nil, err
	}
	return d.MonteCarlo(ctx, q, samples, r)
}

// EvalFuzzySymbolic computes the answers of the query and their
// conditions without any probability: it validates and flattens the
// tree and runs Doc.Symbolic.
func EvalFuzzySymbolic(q *Query, ft *fuzzy.Tree) ([]ProbAnswer, error) {
	return EvalFuzzySymbolicContext(context.Background(), q, ft)
}

// EvalFuzzySymbolicContext is EvalFuzzySymbolic honoring context
// cancellation (polled every few hundred matches) and recording spans
// when ctx carries an obs trace.
func EvalFuzzySymbolicContext(ctx context.Context, q *Query, ft *fuzzy.Tree) ([]ProbAnswer, error) {
	d, err := FlattenValid(ft)
	if err != nil {
		return nil, err
	}
	return d.Symbolic(ctx, q)
}

// Exact evaluates the query on a document built by FlattenFuzzy from a
// valid tree: valuations are found on the flat form, and each answer's
// probability is the probability of the disjunction of the condition
// conjunctions of its valuations, computed exactly under the tree's
// event table. Answers are returned in deterministic order (descending
// probability, then canonical form).
//
// Only MinimalSubtree answers are supported: the answer for a valuation
// must be fully determined by the matched nodes and their ancestors, so
// that its existence is equivalent to a conjunction of conditions.
func (d *Doc) Exact(ctx context.Context, q *Query) ([]ProbAnswer, error) {
	return d.evalProb(ctx, q, func(a *ProbAnswer) (float64, error) {
		p, err := a.Prob(ctx, d.tree.Table)
		if err != nil {
			return 0, fmt.Errorf("tpwj: %w", err)
		}
		return p, nil
	})
}

// MonteCarlo estimates answer probabilities by sampling: it finds the
// answers symbolically like Exact but replaces the exact DNF
// probability computation with Monte-Carlo estimation over the events.
// It is the scalable fallback when condition DNFs grow large
// (experiment E9). The probability stage records its span under the
// same "event.prob" name as Exact's: it is the same pipeline position,
// estimated instead of computed exactly.
func (d *Doc) MonteCarlo(ctx context.Context, q *Query, samples int, r *rand.Rand) ([]ProbAnswer, error) {
	return d.evalProb(ctx, q, func(a *ProbAnswer) (float64, error) {
		if a.Cond != nil {
			return d.tree.Table.EstimateDNFCtx(ctx, a.Cond, samples, r)
		}
		return d.tree.Table.EstimateFormulaCtx(ctx, a.Formula, samples, r)
	})
}

// evalProb is the body shared by exact and Monte-Carlo evaluation:
// find the answers symbolically, give each the probability prob
// computes for it, and order them (descending probability, then
// canonical form).
func (d *Doc) evalProb(ctx context.Context, q *Query, prob func(*ProbAnswer) (float64, error)) ([]ProbAnswer, error) {
	answers, err := d.Symbolic(ctx, q)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "event.prob")
	defer span.End()
	// Answers whose condition holds in no world (probability exactly 0,
	// possible with negation or degenerate event probabilities, or
	// estimated so) are not answers: the possible-worlds semantics never
	// produces them.
	out := answers[:0]
	for i := range answers {
		p, err := prob(&answers[i])
		if err != nil {
			return nil, err
		}
		if p == 0 {
			continue
		}
		answers[i].P = p
		out = append(out, answers[i])
	}
	// The symbolic pass returns answers in ascending canonical form, so
	// a stable sort on probability alone breaks ties by canonical form.
	sort.SliceStable(out, func(i, j int) bool { return out[i].P > out[j].P })
	return out, nil
}

// Symbolic computes the answers of the query on a document built by
// FlattenFuzzy and their conditions (DNF for positive queries, general
// formulas when the pattern uses negation) without computing any
// probability: every returned ProbAnswer has P == 0. The symbolic pass
// is the cheap half of Exact — the expensive half is the per-answer
// probability computation — which makes it the tool for incremental
// maintenance of materialized views (internal/view): re-derive the
// answer set, then pay for ProbDNF only on answers whose condition
// actually changed. Answers are returned in deterministic order
// (ascending canonical form). Cancellation of ctx is polled every few
// hundred matches.
//
// Each valuation's condition is the conjunction of the conditions of
// its minimal subtree (the matched nodes and their ancestors), and
// valuations with the same answer tree are folded into one answer.
// With forbidden sub-patterns (negation extension) a valuation's
// condition becomes
//
//	clause(valuation) ∧ ⋀ ¬( ∨ conditions of forbidden sub-matches )
//
// — a general Boolean formula, since a forbidden node may exist in some
// worlds only. Valuations are then enumerated without the plain-tree
// not-exists filter; the filter is expressed probabilistically instead.
//
// Enumeration records a "tpwj.match" span and the per-answer condition
// normalization an "event.compile" span when ctx carries an obs trace.
func (d *Doc) Symbolic(ctx context.Context, q *Query) ([]ProbAnswer, error) {
	_, mspan := obs.StartSpan(ctx, "tpwj.match")
	neg := q.HasNegation()
	type acc struct {
		tree     *tree.Node
		dnf      event.DNF
		formulas []event.Formula
	}
	byCanon := make(map[string]*acc)
	stop := newMatchCancel(ctx)
	var ids []int32
	err := d.match(q, !neg, obs.CostFromContext(ctx), func(m *matcher) bool {
		if stop.hit() {
			return false
		}
		ids = d.Closure(m.main.b, ids)
		clause := d.Condition(ids)
		if !clause.Satisfiable() {
			return true
		}
		var phi event.Formula
		if neg {
			if phi = m.negatedCondition(clause); phi == event.FFalse {
				return true
			}
		}
		a := d.answer(ids, nil)
		c := tree.Canonical(a)
		entry, ok := byCanon[c]
		if !ok {
			entry = &acc{tree: a}
			byCanon[c] = entry
		}
		if neg {
			entry.formulas = append(entry.formulas, phi)
		} else {
			entry.dnf = append(entry.dnf, clause)
		}
		return true
	})
	mspan.End()
	if err == nil {
		err = stop.err
	}
	if err != nil {
		return nil, err
	}
	_, cspan := obs.StartSpan(ctx, "event.compile")
	defer cspan.End()
	keys := make([]string, 0, len(byCanon))
	for k := range byCanon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ProbAnswer, 0, len(keys))
	for _, k := range keys {
		e := byCanon[k]
		if neg {
			out = append(out, ProbAnswer{Tree: e.tree, Formula: event.FOr(e.formulas...)})
			continue
		}
		dnf := e.dnf.Normalize()
		out = append(out, ProbAnswer{Tree: e.tree, Cond: dnf})
	}
	return out, nil
}

// negatedCondition returns the condition of the current valuation of a
// query with negation: clause, and for every forbidden sub-pattern not
// the disjunction of the conditions of its matches below the bound
// node.
func (m *matcher) negatedCondition(clause event.Condition) event.Formula {
	parts := []event.Formula{event.FCond(clause)}
	var ids []int32
	for _, k := range m.p.positive {
		for _, f := range m.p.nodes[k].forbidden {
			var sub event.DNF
			m.subMatches(f, m.main.b[k], func(bound []int32) bool {
				ids = m.d.Closure(bound, ids)
				if c := m.d.Condition(ids); c.Satisfiable() {
					sub = append(sub, c)
				}
				return true
			})
			if len(sub) > 0 {
				parts = append(parts, event.FNot(event.FDNF(sub.Normalize())))
			}
		}
	}
	return event.FAnd(parts...)
}

// matchCancel polls a context once every 256 match-callback calls, the
// cooperative cancellation point of the symbolic pass (a single callback
// is cheap; enumerations are long because matches are many). A context
// that can never be cancelled costs one nil check per match.
type matchCancel struct {
	ctx context.Context
	n   int
	err error
}

func newMatchCancel(ctx context.Context) *matchCancel {
	if ctx == nil || ctx.Done() == nil {
		return &matchCancel{}
	}
	return &matchCancel{ctx: ctx}
}

// hit reports whether enumeration must stop; it records the context
// error for the caller to return after the enumerator unwinds.
func (mc *matchCancel) hit() bool {
	if mc.ctx == nil {
		return false
	}
	if mc.n++; mc.n&255 != 0 {
		return false
	}
	if err := mc.ctx.Err(); err != nil {
		mc.err = err
		return true
	}
	return false
}
