package event

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// DNF is a disjunction of conjunctive conditions. Query answers on fuzzy
// trees are events of this form: an answer tree appears if any of the
// valuations producing it has its condition satisfied.
//
// The empty DNF is false; a DNF containing an empty (always-true) clause
// is true.
type DNF []Condition

// Or returns the DNF extended by one clause. The receiver is never
// modified and the result never shares a backing array with it, so two
// DNFs branched from the same prefix cannot overwrite each other (the
// aliasing hazard of a bare append).
func (d DNF) Or(c Condition) DNF {
	out := make(DNF, len(d), len(d)+1)
	copy(out, d)
	return append(out, c)
}

// Clone returns a deep copy of d.
func (d DNF) Clone() DNF {
	if d == nil {
		return nil
	}
	out := make(DNF, len(d))
	for i, c := range d {
		out[i] = c.Clone()
	}
	return out
}

// Normalize returns the canonical form of d: clauses normalized,
// unsatisfiable clauses dropped, duplicate clauses removed, clauses
// sorted. Absorption (dropping clauses entailed by another clause) is
// also applied, since it preserves the disjunction.
func (d DNF) Normalize() DNF {
	clauses := make([]Condition, 0, len(d))
	for _, c := range d {
		if n := c.Normalize(); n.canonicalSatisfiable() {
			clauses = append(clauses, n)
		}
	}
	// Absorption: a clause that contains all literals of another clause
	// is redundant. Shorter (weaker) clauses come first, so what is kept
	// is the set of minimal clauses, whatever the order among equals.
	slices.SortFunc(clauses, func(a, b Condition) int { return len(a) - len(b) })
	// The result is ordered by the clauses' text, rendered once each.
	type rendered struct {
		c Condition
		s string
	}
	kept := make([]rendered, 0, len(clauses))
	for _, c := range clauses {
		if !slices.ContainsFunc(kept, func(k rendered) bool { return canonicalSubset(k.c, c) }) {
			kept = append(kept, rendered{c, c.String()})
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(a, b rendered) int { return strings.Compare(a.s, b.s) })
	out := make(DNF, len(kept))
	for i, k := range kept {
		out[i] = k.c
	}
	return out
}

// IsTrue reports whether the normalized DNF is the constant true (has an
// always-true clause).
func (d DNF) IsTrue() bool {
	for _, c := range d {
		if len(c.Normalize()) == 0 && c.Satisfiable() {
			return true
		}
	}
	return false
}

// Eval returns the truth value of the disjunction under the assignment.
func (d DNF) Eval(a Assignment) bool {
	for _, c := range d {
		if c.Eval(a) {
			return true
		}
	}
	return false
}

// Events returns the sorted distinct events mentioned by d.
func (d DNF) Events() []ID {
	set := make(map[ID]struct{})
	for _, c := range d {
		for _, l := range c {
			set[l.Event] = struct{}{}
		}
	}
	out := make([]ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the DNF as clauses joined by " | "; the false DNF renders
// as "false" and a true clause renders as "true".
func (d DNF) String() string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		if len(c) == 0 {
			parts[i] = "true"
		} else {
			parts[i] = c.String()
		}
	}
	return strings.Join(parts, " | ")
}

// ProbDNF computes the exact probability P(c₁ ∨ … ∨ c_k) under the
// independence assumptions of the table. The DNF is compiled to an
// interned integer-literal form (CompileDNF) and evaluated by memoized
// Shannon expansion with independent-component decomposition: clauses
// sharing no event are split into components whose probabilities
// combine as 1-∏(1-pᵢ), and each component is conditioned on its most
// frequent event with both cofactors solved recursively. Worst-case
// exponential in the number of events (the problem is #P-hard), but
// fast on the overlapping condition sets produced by query evaluation.
func (t *Table) ProbDNF(d DNF) (float64, error) {
	c, err := t.CompileDNF(d)
	if err != nil {
		return 0, err
	}
	return c.Prob(), nil
}

// ProbDNFCtx is ProbDNF honoring context cancellation: the Shannon
// expansion checks ctx periodically and aborts with the context's error
// (compilation itself is linear and runs to completion). When the
// context carries an obs cost accumulator, compile and expansion work
// is charged to it.
func (t *Table) ProbDNFCtx(ctx context.Context, d DNF) (float64, error) {
	c, err := t.CompileDNFCtx(ctx, d)
	if err != nil {
		return 0, err
	}
	return c.ProbCtx(ctx)
}

// ProbDNFBrute computes P(d) by enumerating all assignments over the
// events of d. Exponential; used as a testing oracle for ProbDNF.
func (t *Table) ProbDNFBrute(d DNF) (float64, error) {
	total := 0.0
	err := t.ForEachAssignment(d.Events(), func(a Assignment, p float64) bool {
		if d.Eval(a) {
			total += p
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// EstimateDNF estimates P(d) by Monte Carlo sampling. It is the
// scalable alternative when exact Shannon expansion becomes expensive;
// the standard error decreases as 1/sqrt(samples). Sampling runs on the
// same compiled form as the exact engine: on the ≤64-event fast path a
// sampled world is one uint64 and each clause check is two word
// operations. Unknown events are rejected exactly when ProbDNF rejects
// them: only if they survive normalization (see CompileDNF).
func (t *Table) EstimateDNF(d DNF, samples int, r *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("event: non-positive sample count %d", samples)
	}
	c, err := t.CompileDNF(d)
	if err != nil {
		return 0, err
	}
	return c.Estimate(samples, r), nil
}

// EstimateDNFCtx is EstimateDNF honoring context cancellation between
// sample batches.
func (t *Table) EstimateDNFCtx(ctx context.Context, d DNF, samples int, r *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("event: non-positive sample count %d", samples)
	}
	c, err := t.CompileDNFCtx(ctx, d)
	if err != nil {
		return 0, err
	}
	return c.EstimateCtx(ctx, samples, r)
}
