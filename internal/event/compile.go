package event

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// This file implements the compilation front end of the exact
// probability engine: interning of event IDs to dense integers, the
// canonical integer-literal clause representation, its single-word mask
// form for DNFs over at most 64 events, and the engine counters
// (px_engine_*) that pxserve's /stats and /metrics render.
//
// A compiled literal is slot<<1|neg where slot is the index of the
// event in the DNF-local universe (events ordered by their per-table
// interned index, so the expansion order — and hence the floating-point
// rounding — is deterministic for a given table). A compiled clause
// keeps its literals sorted ascending. When the whole DNF touches at
// most 64 distinct events the clauses are also kept as pos/neg uint64
// masks over the local slots (mask.go), and exact evaluation and
// sampling run on the masks alone.

// engine counters (package-global, lock-free: tables are read
// concurrently by query evaluation running outside warehouse locks).
// They live on the obs default registry, which /metrics and /stats
// render; tests in this package read the handles directly.
var (
	engineCompiles       = obs.Default().Counter("px_engine_compiles_total", "DNFs compiled by the exact probability engine")
	engineBitsetCompiles = obs.Default().Counter("px_engine_bitset_compiles_total", "compiled DNFs that qualified for the <=64-event bitset fast path")
	engineMemoHits       = obs.Default().Counter("px_engine_memo_hits_total", "Shannon-expansion structural-hash memo hits")
	engineMemoMisses     = obs.Default().Counter("px_engine_memo_misses_total", "Shannon-expansion structural-hash memo misses")
	engineComponents     = obs.Default().Counter("px_engine_components_total", "independent components produced by the decomposition")
	engineHashCollisions = obs.Default().Counter("px_engine_hash_collisions_total", "structural hash collisions (checked, recomputed)")
	engineCancellations  = obs.Default().Counter("px_engine_cancellations_total", "probability evaluations stopped mid-flight by context cancellation or deadline")
	engineExpansionNodes = obs.Default().Counter("px_engine_expansion_nodes_total", "Shannon-expansion nodes visited (DNF engine recursion steps and formula evaluator steps)")
	engineMCSamples      = obs.Default().Counter("px_engine_mc_samples_total", "Monte-Carlo world samples drawn")
)

// cclause is one compiled conjunctive clause: its local literals,
// sorted ascending.
type cclause []int32

// Compiled is a DNF compiled against a Table: normalized (unsatisfiable
// clauses dropped, duplicate literals and absorbed clauses removed),
// with events interned to dense local slots. It is immutable and safe
// for concurrent use; Prob and Estimate both run on it.
type Compiled struct {
	clauses []cclause
	masks   []mclause // clauses in mask form and mask order; small only
	probs   []float64 // local slot -> event probability (0 for unused slots)
	small   bool      // at most 64 local slots: the mask engine evaluates it
	isTrue  bool      // the DNF contains an always-true clause
}

// Small reports whether the compiled DNF uses the ≤64-event bitset
// representation.
func (c *Compiled) Small() bool { return c.small }

// NumClauses returns the number of clauses after normalization.
func (c *Compiled) NumClauses() int { return len(c.clauses) }

// cmpClause orders clauses canonically: shorter first, then
// lexicographically by literal.
func cmpClause(a, b cclause) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// subsetClause reports whether every literal of a occurs in b.
func subsetClause(a, b cclause) bool {
	i := 0
	for _, l := range a {
		for i < len(b) && b[i] < l {
			i++
		}
		if i >= len(b) || b[i] != l {
			return false
		}
		i++
	}
	return true
}

// absorb filters a canonically sorted clause list in place, dropping
// every clause that contains all literals of an earlier kept clause
// (including exact duplicates). The input must be sorted by cmpClause
// so that weaker (shorter) clauses come first.
func absorb(cls []cclause) []cclause {
	kept := cls[:0]
	for _, c := range cls {
		absorbed := false
		for _, k := range kept {
			if subsetClause(k, c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, c)
		}
	}
	return kept
}

// CompileDNFCtx is CompileDNF charging the context's cost accumulator
// (when one is attached) alongside the global compile counters, so a
// request's ?explain=1 breakdown mirrors the px_engine_* families
// exactly. Compilation itself never consults the context.
func (t *Table) CompileDNFCtx(ctx context.Context, d DNF) (*Compiled, error) {
	return t.compileDNF(obs.CostFromContext(ctx), d)
}

// ChargeMCSamples charges n Monte-Carlo samples drawn outside the
// compiled engine (keyword search's world sampler, formula estimation)
// to the same px_engine_mc_samples_total family and cost category the
// engine itself uses, keeping the sample accounting unified.
func ChargeMCSamples(cost *obs.Cost, n int64) {
	obs.Charge(cost, obs.CostEngineMCSamples, engineMCSamples, n)
}

// CompileDNF compiles d against the table. Events are interned through
// the table's dense index; events unknown to the table are an error
// only if they survive normalization (an unknown event confined to an
// unsatisfiable or absorbed clause is never consulted, matching the
// possible-worlds semantics and the historical ProbDNF behavior).
func (t *Table) CompileDNF(d DNF) (*Compiled, error) {
	return t.compileDNF(nil, d)
}

// compileDNF is the shared implementation: every counter increment goes
// through obs.Charge, so the global families and the per-request cost
// stay two sums over the same stream.
func (t *Table) compileDNF(cost *obs.Cost, d DNF) (*Compiled, error) {
	obs.Charge(cost, obs.CostEngineCompiles, engineCompiles, 1)
	c := &Compiled{}
	if len(d) == 0 {
		return c, nil // constant false
	}

	// Pass 1: intern every literal to a global index (table interner,
	// with a compile-local overflow for events the table doesn't know).
	var overflow []ID
	globOf := func(id ID) int32 {
		if g, ok := t.idx[id]; ok {
			return g
		}
		for i, o := range overflow {
			if o == id {
				return int32(len(t.rev) + i)
			}
		}
		overflow = append(overflow, id)
		return int32(len(t.rev) + len(overflow) - 1)
	}
	total := 0
	for _, cl := range d {
		total += len(cl)
	}
	rawLits := make([]int32, 0, total)
	ends := make([]int, 0, len(d))
	for _, cl := range d {
		for _, l := range cl {
			g := globOf(l.Event) << 1
			if l.Neg {
				g |= 1
			}
			rawLits = append(rawLits, g)
		}
		ends = append(ends, len(rawLits))
	}

	// Distinct globals, ascending: the local slot universe. Ordering by
	// interned index keeps expansion order deterministic per table.
	globals := make([]int32, len(rawLits))
	for i, l := range rawLits {
		globals[i] = l >> 1
	}
	slices.Sort(globals)
	globals = slices.Compact(globals)
	c.small = len(globals) <= 64
	if c.small {
		obs.Charge(cost, obs.CostEngineBitsetCompiles, engineBitsetCompiles, 1)
	}

	// Pass 2: build normalized clauses over local slots.
	litArena := make([]int32, 0, total)
	clauses := make([]cclause, 0, len(d))
	start := 0
	for _, end := range ends {
		raw := rawLits[start:end]
		start = end
		if len(raw) == 0 {
			// Always-true clause: the whole DNF is true; no event of any
			// other clause is ever consulted.
			c.isTrue = true
			c.clauses = []cclause{nil}
			c.probs = make([]float64, len(globals))
			return c, nil
		}
		// Remap to local slots, sort, dedup, drop on contradiction.
		lits := litArena[len(litArena):len(litArena):cap(litArena)]
		for _, l := range raw {
			slot, _ := slices.BinarySearch(globals, l>>1)
			lits = append(lits, int32(slot)<<1|l&1)
		}
		litArena = litArena[:len(litArena)+len(lits)]
		slices.Sort(lits)
		lits = slices.Compact(lits)
		contradicted := false
		for i := 0; i+1 < len(lits); i++ {
			if lits[i]>>1 == lits[i+1]>>1 {
				contradicted = true
				break
			}
		}
		if contradicted {
			continue
		}
		clauses = append(clauses, lits)
	}

	slices.SortFunc(clauses, cmpClause)
	clauses = absorb(clauses)
	c.clauses = clauses
	if c.small {
		c.masks = maskClauses(clauses)
	}

	// Only events that survive normalization must be known; resolve
	// their probabilities into the dense local table.
	c.probs = make([]float64, len(globals))
	seen := make([]bool, len(globals))
	for _, cl := range clauses {
		for _, l := range cl {
			slot := l >> 1
			if seen[slot] {
				continue
			}
			seen[slot] = true
			g := globals[slot]
			var id ID
			if int(g) < len(t.rev) {
				id = t.rev[g]
			} else {
				id = overflow[int(g)-len(t.rev)]
			}
			p, ok := t.probs[id]
			if !ok {
				return nil, fmt.Errorf("event: unknown event %q in DNF %q", id, d)
			}
			c.probs[slot] = p
		}
	}
	return c, nil
}
