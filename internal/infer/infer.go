// Package infer provides probabilistic inference utilities on top of the
// fuzzy tree model: posterior event probabilities given query evidence,
// answer correlation, and distribution diagnostics. These are natural
// companions of the paper's model — the warehouse accumulates uncertain
// facts, and downstream modules want to condition on what a query
// observed.
package infer

import (
	"fmt"
	"math"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/worlds"
)

// EvidenceFormula returns the Boolean formula over the document's events
// that holds exactly in the worlds where the query has at least one
// answer ("the document is selected by Q").
func EvidenceFormula(q *tpwj.Query, ft *fuzzy.Tree) (event.Formula, error) {
	answers, err := tpwj.EvalFuzzy(q, ft)
	if err != nil {
		return nil, err
	}
	fs := make([]event.Formula, len(answers))
	for i := range answers {
		fs[i] = condition(&answers[i])
	}
	return event.FOr(fs...), nil
}

// condition returns the answer's condition as a formula: its DNF lifted
// for a positive query, its Formula for one with negation.
func condition(a *tpwj.ProbAnswer) event.Formula {
	if a.Cond != nil {
		return event.FDNF(a.Cond)
	}
	return a.Formula
}

// ProbSelected returns the probability that the query has at least one
// answer on the document.
func ProbSelected(q *tpwj.Query, ft *fuzzy.Tree) (float64, error) {
	f, err := EvidenceFormula(q, ft)
	if err != nil {
		return 0, err
	}
	return ft.Table.ProbFormula(f)
}

// Posterior computes, for every event of the document, its posterior
// probability given that the query matched: P(e | Q selected) =
// P(e ∧ selected) / P(selected). It returns an error if the evidence has
// probability zero.
//
// The posterior marginals are correct individually, but the events are
// in general no longer independent after conditioning, so they must not
// be written back into an event.Table to form a new document.
func Posterior(q *tpwj.Query, ft *fuzzy.Tree) (map[event.ID]float64, error) {
	evid, err := EvidenceFormula(q, ft)
	if err != nil {
		return nil, err
	}
	pEvid, err := ft.Table.ProbFormula(evid)
	if err != nil {
		return nil, err
	}
	if pEvid == 0 {
		return nil, fmt.Errorf("infer: conditioning on zero-probability evidence %q", tpwj.FormatQuery(q))
	}
	out := make(map[event.ID]float64)
	for _, e := range ft.Events() {
		joint, err := ft.Table.ProbFormula(event.FAnd(event.FLit(event.Pos(e)), evid))
		if err != nil {
			return nil, err
		}
		out[e] = joint / pEvid
	}
	return out, nil
}

// Correlation quantifies the dependence of two queries on the document:
// it returns P(both selected), P(q1), P(q2) and the lift
// P(both)/(P(q1)·P(q2)) (1 means independent; 0 means mutually
// exclusive). Lift is NaN if either marginal is zero.
func Correlation(q1, q2 *tpwj.Query, ft *fuzzy.Tree) (both, p1, p2, lift float64, err error) {
	f1, err := EvidenceFormula(q1, ft)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	f2, err := EvidenceFormula(q2, ft)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if p1, err = ft.Table.ProbFormula(f1); err != nil {
		return 0, 0, 0, 0, err
	}
	if p2, err = ft.Table.ProbFormula(f2); err != nil {
		return 0, 0, 0, 0, err
	}
	if both, err = ft.Table.ProbFormula(event.FAnd(f1, f2)); err != nil {
		return 0, 0, 0, 0, err
	}
	lift = both / (p1 * p2)
	return both, p1, p2, lift, nil
}

// CountDistribution returns the exact distribution of the number of
// distinct answers the query has across possible worlds:
// result[k] = P(the query has exactly k answers). It expands the
// document's relevant events, so it shares the exactness limit of
// fuzzy.Tree.Expand; probabilities sum to 1.
func CountDistribution(q *tpwj.Query, ft *fuzzy.Tree) (map[int]float64, error) {
	answers, err := tpwj.EvalFuzzy(q, ft)
	if err != nil {
		return nil, err
	}
	if len(answers) == 0 {
		return map[int]float64{0: 1}, nil
	}
	// Enumerate assignments over the events the answers mention; per
	// assignment, count which answer conditions hold.
	formulas := make([]event.Formula, len(answers))
	eventSet := make(map[event.ID]struct{})
	for i := range answers {
		formulas[i] = condition(&answers[i])
		for _, e := range formulas[i].Events() {
			eventSet[e] = struct{}{}
		}
	}
	events := make([]event.ID, 0, len(eventSet))
	for e := range eventSet {
		events = append(events, e)
	}
	if len(events) > fuzzy.MaxExactEvents {
		return nil, fmt.Errorf("infer: %d events exceed MaxExactEvents=%d", len(events), fuzzy.MaxExactEvents)
	}
	out := make(map[int]float64)
	err = ft.Table.ForEachAssignment(events, func(a event.Assignment, p float64) bool {
		k := 0
		for _, f := range formulas {
			if f.Eval(a) {
				k++
			}
		}
		out[k] += p
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpectedAnswerCount returns the expectation of the number of distinct
// answers: the sum of the answer probabilities (by linearity, no
// expansion needed).
func ExpectedAnswerCount(q *tpwj.Query, ft *fuzzy.Tree) (float64, error) {
	answers, err := tpwj.EvalFuzzy(q, ft)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, a := range answers {
		sum += a.P
	}
	return sum, nil
}

// Entropy returns the Shannon entropy (in bits) of a possible-worlds
// distribution — a measure of how uncertain the document is. The set is
// normalized first.
func Entropy(s *worlds.Set) float64 {
	h := 0.0
	for _, w := range s.Normalize().Worlds {
		if w.P > 0 {
			h -= w.P * math.Log2(w.P)
		}
	}
	return h
}

// DocumentEntropy is Entropy of the document's expansion; it shares the
// exactness limit of fuzzy.Tree.Expand.
func DocumentEntropy(ft *fuzzy.Tree) (float64, error) {
	pw, err := ft.Expand()
	if err != nil {
		return 0, err
	}
	return Entropy(pw), nil
}
