package event

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"repro/internal/obs"
)

// pollInterval is how many Shannon-expansion nodes (or
// Monte-Carlo samples) are processed between context checks: a power
// of two so the check is a mask test, frequent enough that abandoning
// a pathological DNF takes microseconds, rare enough that the check is
// unmeasurable on ordinary evaluations (see exp's TestFaultOverhead).
const pollInterval = 1024

// evalCanceled carries a context error out of the recursion by panic:
// threading an error return through the hot prob recursion would tax
// every call for the rare cancelled one. It never escapes the package
// — ProbCtx recovers it.
type evalCanceled struct{ err error }

// This file is the evaluation back end of the exact probability engine
// for DNFs over more than 64 events: memoized Shannon expansion over the
// literal-list clause form, with independent-component decomposition and
// arena-based scratch memory. DNFs over at most 64 events run the same
// algorithm on single-word masks (mask.go). Both engines live for one
// Prob call; nothing they allocate outlives it.

// memoEntry stores the probability of one expanded sub-DNF together
// with its flattened canonical key: the structural uint64 hash indexes
// the memo, the key guards against (astronomically rare) collisions —
// on mismatch the engine simply recomputes.
type memoEntry struct {
	key []int32
	p   float64
}

// walk is what every exact evaluator (the two compiled DNF engines and
// the formula evaluator) carries through one evaluation: the compiled
// event probabilities, the context to poll and the counter deltas,
// flushed to the global atomics once per call.
type walk struct {
	probs []float64

	// ctx, when non-nil, is polled every pollInterval expansion
	// nodes; a cancellation aborts the recursion via evalCanceled. nil
	// (context-free Prob, or a context that can never be cancelled)
	// costs nothing on the hot path beyond one pointer test.
	ctx context.Context

	// nodes counts expansion nodes visited; it doubles as the
	// cancellation-poll tick.
	nodes                                int64
	hits, misses, components, collisions int64
}

// step counts one expansion node and polls the context.
func (w *walk) step() {
	w.nodes++
	if w.ctx != nil && w.nodes&(pollInterval-1) == 0 {
		if err := w.ctx.Err(); err != nil {
			panic(evalCanceled{err})
		}
	}
}

// engine carries the per-call state of one exact evaluation over
// literal lists. Scratch buffers are sized by the compiled DNF's local
// universe and reused across the whole recursion.
type engine struct {
	walk
	memo map[uint64]memoEntry

	cnt   []int32 // per-slot literal counts (most-frequent-event scratch)
	owner []int32 // per-slot first-clause index (component scratch)

	intArena []int32   // backing store for shrunk clauses and memo keys
	clArena  []cclause // backing store for cofactor clause lists
}

// Prob computes the exact probability of the compiled DNF.
func (c *Compiled) Prob() float64 {
	p, _ := c.probCtx(nil, nil)
	return p
}

// ProbCtx is Prob with cooperative cancellation: the Shannon expansion
// polls ctx every pollInterval nodes and aborts with ctx's
// error when it fires, so a request deadline or a disconnected client
// stops a pathological DNF mid-flight instead of pinning a core.
func (c *Compiled) ProbCtx(ctx context.Context) (float64, error) {
	// The cost accumulator must come off the context before the
	// fast-path nil-ing below: an uncancellable context (Done() == nil)
	// skips the per-node polls, but its request still pays for — and is
	// charged for — every expansion node.
	cost := obs.CostFromContext(ctx)
	if ctx == nil || ctx.Done() == nil {
		// The context can never fire (Background and friends): evaluate
		// on the check-free path.
		ctx = nil
	}
	return c.probCtx(ctx, cost)
}

func (c *Compiled) probCtx(ctx context.Context, cost *obs.Cost) (p float64, err error) {
	if ctx != nil {
		// Evaluations shorter than pollInterval never reach a
		// periodic poll, so an already-expired context must abort here.
		if err := ctx.Err(); err != nil {
			engineCancellations.Inc()
			return math.NaN(), err
		}
	}
	if c.isTrue {
		return 1, nil
	}
	if len(c.clauses) == 0 {
		return 0, nil
	}
	if c.small {
		e := maskEngine{walk: walk{probs: c.probs, ctx: ctx}}
		defer e.finish(cost, &p, &err)
		return e.prob(c.masks), nil
	}
	e := c.listEngine(ctx)
	defer e.finish(cost, &p, &err)
	return e.prob(c.clauses), nil
}

// listEngine returns a literal-list engine for one evaluation of c.
func (c *Compiled) listEngine(ctx context.Context) *engine {
	return &engine{
		walk:  walk{probs: c.probs, ctx: ctx},
		memo:  make(map[uint64]memoEntry),
		cnt:   make([]int32, len(c.probs)),
		owner: make([]int32, len(c.probs)),
	}
}

// finish is deferred around an evaluation: it flushes the counter
// deltas and turns a cancellation panic into the call's result.
func (w *walk) finish(cost *obs.Cost, p *float64, err *error) {
	// Counter deltas flush even on abort, so /stats stays truthful
	// about work done by cancelled evaluations. Charge feeds the
	// global counter and the request's cost accumulator from the
	// same delta (collisions stay process-global only: a hash
	// accident is not a property of the request's plan).
	obs.Charge(cost, obs.CostEngineMemoHits, engineMemoHits, w.hits)
	obs.Charge(cost, obs.CostEngineMemoMisses, engineMemoMisses, w.misses)
	obs.Charge(cost, obs.CostEngineComponents, engineComponents, w.components)
	obs.Charge(cost, obs.CostEngineExpansionNodes, engineExpansionNodes, w.nodes)
	engineHashCollisions.Add(w.collisions)
	if r := recover(); r != nil {
		ec, ok := r.(evalCanceled)
		if !ok {
			panic(r)
		}
		engineCancellations.Inc()
		*p, *err = math.NaN(), ec.err
	}
}

// allocInts hands out n int32s of arena memory. Blocks are never
// reused, so previously returned slices stay valid when a new block is
// started.
func (e *engine) allocInts(n int) []int32 {
	if n == 0 {
		return nil
	}
	if cap(e.intArena)-len(e.intArena) < n {
		e.intArena = make([]int32, 0, max(512, n))
	}
	s := e.intArena[len(e.intArena) : len(e.intArena)+n]
	e.intArena = e.intArena[:len(e.intArena)+n]
	return s
}

// allocClauses hands out capacity for n clauses (returned empty).
func (e *engine) allocClauses(n int) []cclause {
	if cap(e.clArena)-len(e.clArena) < n {
		e.clArena = make([]cclause, 0, max(64, n))
	}
	s := e.clArena[len(e.clArena) : len(e.clArena) : len(e.clArena)+n]
	e.clArena = e.clArena[:len(e.clArena)+n]
	return s
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	clauseSep = 0x9e3779b9 // golden-ratio separator mixed between clauses
)

// hashClauses computes the structural FNV-1a hash of a canonical clause
// list.
func hashClauses(cls []cclause) uint64 {
	h := uint64(fnvOffset)
	for _, c := range cls {
		for _, l := range c {
			h ^= uint64(uint32(l))
			h *= fnvPrime
		}
		h ^= clauseSep
		h *= fnvPrime
	}
	return h
}

// flatten serializes a clause list into arena memory as a memo key:
// literals with a -1 separator after each clause.
func (e *engine) flatten(cls []cclause) []int32 {
	n := 0
	for _, c := range cls {
		n += len(c) + 1
	}
	key := e.allocInts(n)
	i := 0
	for _, c := range cls {
		i += copy(key[i:], c)
		key[i] = -1
		i++
	}
	return key
}

// keyMatches reports whether the flattened key equals the clause list.
func keyMatches(key []int32, cls []cclause) bool {
	i := 0
	for _, c := range cls {
		for _, l := range c {
			if i >= len(key) || key[i] != l {
				return false
			}
			i++
		}
		if i >= len(key) || key[i] != -1 {
			return false
		}
		i++
	}
	return i == len(key)
}

// clauseProb returns the probability of a single conjunctive clause:
// the product of its literal probabilities (1 for the empty clause).
func (e *engine) clauseProb(c cclause) float64 {
	p := 1.0
	for _, l := range c {
		pe := e.probs[l>>1]
		if l&1 == 1 {
			p *= 1 - pe
		} else {
			p *= pe
		}
	}
	return p
}

// prob computes P(∨ cls) for a canonical clause list by memoized
// Shannon expansion with component decomposition.
func (e *engine) prob(cls []cclause) float64 {
	e.step()
	switch len(cls) {
	case 0:
		return 0
	case 1:
		return e.clauseProb(cls[0])
	}
	h := hashClauses(cls)
	if m, ok := e.memo[h]; ok {
		if keyMatches(m.key, cls) {
			e.hits++
			return m.p
		}
		e.collisions++
	}
	var p float64
	if comps := e.split(cls); comps != nil {
		// Independent components: clauses in different components share
		// no event, so the disjunctions are independent and
		// P(∨) = 1 - ∏(1 - P(component)).
		e.components += int64(len(comps))
		q := 1.0
		for _, g := range comps {
			q *= 1 - e.prob(g)
		}
		p = 1 - q
	} else {
		slot := e.mostFrequent(cls)
		pe := e.probs[slot]
		var pT, pF float64
		if cof, isTrue := e.cofactor(cls, slot, true); isTrue {
			pT = 1
		} else {
			pT = e.prob(cof)
		}
		if cof, isTrue := e.cofactor(cls, slot, false); isTrue {
			pF = 1
		} else {
			pF = e.prob(cof)
		}
		p = pe*pT + (1-pe)*pF
	}
	e.memo[h] = memoEntry{key: e.flatten(cls), p: p}
	e.misses++
	return p
}

// split partitions the clauses into connected components (clauses
// linked by shared events). It returns nil when there is a single
// component. Component order follows first-clause order, keeping the
// evaluation deterministic.
func (e *engine) split(cls []cclause) [][]cclause {
	owner := e.owner
	for i := range owner {
		owner[i] = -1
	}
	// Union-find over clause indices, allocated from the int arena.
	parent := e.allocInts(len(cls))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	roots := len(cls)
	for i, c := range cls {
		for _, l := range c {
			s := l >> 1
			if owner[s] < 0 {
				owner[s] = int32(i)
				continue
			}
			a, b := find(int32(i)), find(owner[s])
			if a != b {
				parent[a] = b
				roots--
			}
		}
	}
	if roots <= 1 {
		return nil
	}
	// Group clauses by root, preserving clause order within and across
	// groups (group id = order of first appearance).
	groupOf := e.allocInts(len(cls))
	sizes := e.allocInts(roots)
	for i := range sizes {
		sizes[i] = 0
	}
	rootG := e.allocInts(len(cls))
	for i := range rootG {
		rootG[i] = -1
	}
	next := int32(0)
	for i := range cls {
		r := find(int32(i))
		if rootG[r] < 0 {
			rootG[r] = next
			next++
		}
		groupOf[i] = rootG[r]
		sizes[rootG[r]]++
	}
	block := e.allocClauses(len(cls))[:len(cls)]
	groups := make([][]cclause, roots)
	off := 0
	for g := 0; g < roots; g++ {
		groups[g] = block[off : off : off+int(sizes[g])]
		off += int(sizes[g])
	}
	for i, c := range cls {
		g := groupOf[i]
		groups[g] = append(groups[g], c)
	}
	return groups
}

// mostFrequent returns the local slot occurring in the largest number
// of clauses, breaking ties toward the smallest slot (the event
// interned first) for determinism.
func (e *engine) mostFrequent(cls []cclause) int32 {
	cnt := e.cnt
	for _, c := range cls {
		for _, l := range c {
			cnt[l>>1]++
		}
	}
	best, bestN := int32(0), int32(-1)
	for s, n := range cnt {
		if n > bestN {
			best, bestN = int32(s), n
		}
	}
	for _, c := range cls {
		for _, l := range c {
			cnt[l>>1] = 0
		}
	}
	return best
}

// cofactor substitutes truth value v for the event at slot and returns
// the residual clause list in canonical form, maintained incrementally:
// untouched clauses keep their order; shrunk clauses trigger one sort
// plus an absorption pass instead of a full Normalize. The
// second result is true when some clause became empty (the cofactor is
// constantly true).
func (e *engine) cofactor(cls []cclause, slot int32, v bool) ([]cclause, bool) {
	out := e.allocClauses(len(cls))
	posLit := slot << 1
	changed := false
	for _, c := range cls {
		i, found := slices.BinarySearch(c, posLit)
		if !found {
			if i < len(c) && c[i] == posLit|1 {
				found = true
			}
		}
		if !found {
			out = append(out, c)
			continue
		}
		l := c[i]
		if (l&1 == 0) != v {
			continue // literal false under the substitution: clause dropped
		}
		// Literal true: remove it from the clause.
		if len(c) == 1 {
			return nil, true
		}
		nl := e.allocInts(len(c) - 1)
		copy(nl, c[:i])
		copy(nl[i:], c[i+1:])
		out = append(out, nl)
		changed = true
	}
	if changed {
		slices.SortFunc(out, cmpClause)
		out = absorb(out)
	}
	return out, false
}

// Estimate estimates the probability of the compiled DNF by Monte-Carlo
// sampling. Over at most 64 events each sampled world is a single
// uint64 and clause evaluation is two word operations. A non-positive
// sample count returns NaN (EstimateDNF reports it as an error).
func (c *Compiled) Estimate(samples int, r *rand.Rand) float64 {
	p, _ := c.estimateCtx(nil, nil, samples, r)
	return p
}

// EstimateCtx is Estimate with cooperative cancellation: the sampling
// loop polls ctx every pollInterval samples and returns its
// error (with a NaN estimate) when it fires.
func (c *Compiled) EstimateCtx(ctx context.Context, samples int, r *rand.Rand) (float64, error) {
	cost := obs.CostFromContext(ctx) // before the fast-path nil-ing, like ProbCtx
	if ctx == nil || ctx.Done() == nil {
		ctx = nil
	}
	return c.estimateCtx(ctx, cost, samples, r)
}

func (c *Compiled) estimateCtx(ctx context.Context, cost *obs.Cost, samples int, r *rand.Rand) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			engineCancellations.Inc()
			return math.NaN(), err
		}
	}
	if samples <= 0 {
		return math.NaN(), nil
	}
	if c.isTrue {
		return 1, nil
	}
	if len(c.clauses) == 0 {
		return 0, nil
	}
	// done counts samples actually drawn, charged even when the loop is
	// cancelled mid-flight, so the accounting reflects work performed.
	done := 0
	defer func() { obs.Charge(cost, obs.CostEngineMCSamples, engineMCSamples, int64(done)) }()
	hits := 0
	if c.small {
		for i := 0; i < samples; i++ {
			if ctx != nil && i&(pollInterval-1) == pollInterval-1 {
				if err := ctx.Err(); err != nil {
					engineCancellations.Inc()
					return math.NaN(), err
				}
			}
			var w uint64
			for s, p := range c.probs {
				if r.Float64() < p {
					w |= 1 << uint(s)
				}
			}
			done++
			for _, cl := range c.masks {
				if w&cl.pos == cl.pos && w&cl.neg == 0 {
					hits++
					break
				}
			}
		}
	} else {
		world := make([]bool, len(c.probs))
		for i := 0; i < samples; i++ {
			if ctx != nil && i&(pollInterval-1) == pollInterval-1 {
				if err := ctx.Err(); err != nil {
					engineCancellations.Inc()
					return math.NaN(), err
				}
			}
			for s, p := range c.probs {
				world[s] = r.Float64() < p
			}
			done++
			for _, cl := range c.clauses {
				sat := true
				for _, l := range cl {
					if world[l>>1] == (l&1 == 1) {
						sat = false
						break
					}
				}
				if sat {
					hits++
					break
				}
			}
		}
	}
	return float64(hits) / float64(samples), nil
}
