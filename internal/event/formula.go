package event

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Formula is an arbitrary Boolean formula over probabilistic events. It
// generalizes Condition (conjunctions) and DNF (disjunctions of
// conjunctions) and is needed by the query-negation extension
// (perspectives slide of the paper): the probability of "some valuation
// matches and no forbidden valuation does" is P(φ ∧ ¬ψ), which has no
// DNF-only form of bounded size.
//
// Formulas are immutable trees built with FTrue, FFalse, FLit, FAnd,
// FOr and FNot, and evaluated exactly by Table.ProbFormula via memoized
// Shannon expansion.
type Formula interface {
	// Eval returns the truth value under a total assignment (absent
	// events count as false).
	Eval(a Assignment) bool
	// Restrict substitutes a truth value for one event, simplifying
	// constant subformulas.
	Restrict(e ID, v bool) Formula
	// Events returns the sorted distinct events of the formula.
	Events() []ID
	// String renders the formula (also the Shannon memo key).
	String() string
}

type fConst bool

// FTrue and FFalse are the constant formulas.
var (
	FTrue  Formula = fConst(true)
	FFalse Formula = fConst(false)
)

func (c fConst) Eval(Assignment) bool      { return bool(c) }
func (c fConst) Restrict(ID, bool) Formula { return c }
func (c fConst) Events() []ID              { return nil }
func (c fConst) String() string            { return map[bool]string{true: "T", false: "F"}[bool(c)] }

type fLit Literal

// FLit lifts a literal to a formula.
func FLit(l Literal) Formula { return fLit(l) }

// FCond lifts a conjunctive condition to a formula.
func FCond(c Condition) Formula {
	fs := make([]Formula, len(c))
	for i, l := range c {
		fs[i] = FLit(l)
	}
	return FAnd(fs...)
}

// FDNF lifts a DNF to a formula.
func FDNF(d DNF) Formula {
	fs := make([]Formula, len(d))
	for i, c := range d {
		fs[i] = FCond(c)
	}
	return FOr(fs...)
}

func (l fLit) Eval(a Assignment) bool { return Literal(l).Eval(a) }

func (l fLit) Restrict(e ID, v bool) Formula {
	if l.Event != e {
		return l
	}
	if v != l.Neg {
		return FTrue
	}
	return FFalse
}

func (l fLit) Events() []ID   { return []ID{l.Event} }
func (l fLit) String() string { return Literal(l).String() }

type fAnd []Formula

// FAnd builds the conjunction of formulas, simplifying constants. The
// empty conjunction is true.
func FAnd(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f {
		case FTrue:
			continue
		case FFalse:
			return FFalse
		}
		out = append(out, f)
	}
	switch len(out) {
	case 0:
		return FTrue
	case 1:
		return out[0]
	}
	return fAnd(out)
}

func (f fAnd) Eval(a Assignment) bool {
	for _, g := range f {
		if !g.Eval(a) {
			return false
		}
	}
	return true
}

func (f fAnd) Restrict(e ID, v bool) Formula {
	out := make([]Formula, len(f))
	for i, g := range f {
		out[i] = g.Restrict(e, v)
	}
	return FAnd(out...)
}

func (f fAnd) Events() []ID { return unionEvents([]Formula(f)) }

func (f fAnd) String() string { return joinFormulas([]Formula(f), " & ") }

type fOr []Formula

// FOr builds the disjunction of formulas, simplifying constants. The
// empty disjunction is false.
func FOr(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f {
		case FTrue:
			return FTrue
		case FFalse:
			continue
		}
		out = append(out, f)
	}
	switch len(out) {
	case 0:
		return FFalse
	case 1:
		return out[0]
	}
	return fOr(out)
}

func (f fOr) Eval(a Assignment) bool {
	for _, g := range f {
		if g.Eval(a) {
			return true
		}
	}
	return false
}

func (f fOr) Restrict(e ID, v bool) Formula {
	out := make([]Formula, len(f))
	for i, g := range f {
		out[i] = g.Restrict(e, v)
	}
	return FOr(out...)
}

func (f fOr) Events() []ID { return unionEvents([]Formula(f)) }

func (f fOr) String() string { return joinFormulas([]Formula(f), " | ") }

type fNot struct{ f Formula }

// FNot builds the negation of a formula, simplifying constants and
// double negation.
func FNot(f Formula) Formula {
	switch g := f.(type) {
	case fConst:
		return fConst(!g)
	case fNot:
		return g.f
	}
	return fNot{f}
}

func (f fNot) Eval(a Assignment) bool { return !f.f.Eval(a) }

func (f fNot) Restrict(e ID, v bool) Formula { return FNot(f.f.Restrict(e, v)) }

func (f fNot) Events() []ID { return f.f.Events() }

func (f fNot) String() string { return "~(" + f.f.String() + ")" }

func unionEvents(fs []Formula) []ID {
	set := make(map[ID]struct{})
	for _, f := range fs {
		for _, e := range f.Events() {
			set[e] = struct{}{}
		}
	}
	out := make([]ID, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// ProbFormula computes the exact probability of an arbitrary Boolean
// formula by memoized Shannon expansion: condition on the formula's
// first event, recurse on both restrictions. Worst-case exponential in
// the number of events (#P-hard in general), like ProbDNF, but the
// restriction-driven simplification keeps typical query formulas small.
func (t *Table) ProbFormula(f Formula) (float64, error) {
	return t.ProbFormulaCtx(context.Background(), f)
}

// ProbFormulaCtx is ProbFormula honoring context cancellation: the
// Shannon expansion runs on the same walk as the compiled DNF engines,
// polling ctx every pollInterval recursion steps and charging
// each step to px_engine_expansion_nodes_total. A context that can
// never be cancelled takes the zero-check path.
func (t *Table) ProbFormulaCtx(ctx context.Context, f Formula) (p float64, err error) {
	for _, e := range f.Events() {
		if !t.Has(e) {
			return 0, fmt.Errorf("event: unknown event %q in formula %q", e, f)
		}
	}
	// Grab the cost accumulator before deciding whether the context is
	// worth polling: an uncancellable context can still carry a cost.
	cost := obs.CostFromContext(ctx)
	w := &walk{}
	if ctx != nil && ctx.Done() != nil {
		// Small formulas finish before the first periodic poll, so an
		// already-expired context must abort before any expansion.
		if err := ctx.Err(); err != nil {
			engineCancellations.Inc()
			return math.NaN(), err
		}
		w.ctx = ctx
	}
	defer w.finish(cost, &p, &err)
	return t.probFormula(f, make(map[string]float64), w), nil
}

func (t *Table) probFormula(f Formula, memo map[string]float64, w *walk) float64 {
	w.step()
	switch f {
	case FTrue:
		return 1
	case FFalse:
		return 0
	}
	key := f.String()
	if p, ok := memo[key]; ok {
		return p
	}
	events := f.Events()
	if len(events) == 0 {
		// No events but not a constant: evaluate under the empty
		// assignment (cannot happen with the public constructors).
		if f.Eval(Assignment{}) {
			return 1
		}
		return 0
	}
	e := events[0]
	pe := t.probs[e]
	p := pe*t.probFormula(f.Restrict(e, true), memo, w) +
		(1-pe)*t.probFormula(f.Restrict(e, false), memo, w)
	memo[key] = p
	return p
}

// EstimateFormulaCtx estimates P(f) by Monte-Carlo sampling, like
// EstimateDNFCtx but for arbitrary formulas, honoring context
// cancellation between sample batches. Samples actually drawn
// (including before a cancellation) are charged to the context's cost
// accumulator and the global MC-sample counter.
func (t *Table) EstimateFormulaCtx(ctx context.Context, f Formula, samples int, r *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("event: non-positive sample count %d", samples)
	}
	events := f.Events()
	for _, e := range events {
		if !t.Has(e) {
			return 0, fmt.Errorf("event: unknown event %q in formula %q", e, f)
		}
	}
	cost := obs.CostFromContext(ctx)
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			engineCancellations.Add(1)
			return math.NaN(), err
		}
	}
	hits, done := 0, 0
	defer func() { ChargeMCSamples(cost, int64(done)) }()
	for i := 0; i < samples; i++ {
		if ctx != nil && i&(pollInterval-1) == pollInterval-1 {
			if err := ctx.Err(); err != nil {
				engineCancellations.Add(1)
				return math.NaN(), err
			}
		}
		if f.Eval(t.SampleAssignment(events, r)) {
			hits++
		}
		done++
	}
	return float64(hits) / float64(samples), nil
}

// ProbFormulaBrute computes P(f) by enumerating all assignments over the
// formula's events; the testing oracle for ProbFormula.
func (t *Table) ProbFormulaBrute(f Formula) (float64, error) {
	total := 0.0
	err := t.ForEachAssignment(f.Events(), func(a Assignment, p float64) bool {
		if f.Eval(a) {
			total += p
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}
