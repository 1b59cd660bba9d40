package obs

import (
	"context"
	"sync/atomic"
)

// CostKind enumerates the per-request cost categories. Each kind mirrors
// exactly one process-wide metric family (or one label of one), and the
// only code path that charges either is Charge — so the per-request
// breakdown and the global counters are two sums over the same stream of
// increments and can never drift. See docs/OBSERVABILITY.md for the
// category ↔ family catalog.
type CostKind int

const (
	// CostEngineCompiles counts event-engine DNF compiles.
	CostEngineCompiles CostKind = iota
	// CostEngineBitsetCompiles counts compiles served by the bitset
	// fast path (a subset of CostEngineCompiles).
	CostEngineBitsetCompiles
	// CostEngineMemoHits / CostEngineMemoMisses count Shannon-expansion
	// memo table hits and misses.
	CostEngineMemoHits
	CostEngineMemoMisses
	// CostEngineComponents counts independent-component decompositions.
	CostEngineComponents
	// CostEngineExpansionNodes counts Shannon-expansion nodes visited
	// (DNF engine recursion steps plus formula-evaluator steps).
	CostEngineExpansionNodes
	// CostEngineMCSamples counts Monte-Carlo world samples drawn.
	CostEngineMCSamples
	// CostTpwjNodesVisited counts document nodes visited by the TPWJ
	// matcher; CostTpwjMatchesTried counts candidate matches emitted to
	// the join/filter stage.
	CostTpwjNodesVisited
	CostTpwjMatchesTried
	// CostKeywordPostingsScanned counts inverted-index postings scanned
	// while merging keyword candidate lists.
	CostKeywordPostingsScanned
	// CostKeywordCandidatesPruned counts candidates eliminated by the
	// MinProb upper bound before exact evaluation.
	CostKeywordCandidatesPruned
	// CostViewMaintSkipped / Incremental / Recomputed count view
	// maintenance passes by chosen tier.
	CostViewMaintSkipped
	CostViewMaintIncremental
	CostViewMaintRecomputed
	// CostViewAnswersReused / Recomputed count answer probabilities kept
	// versus re-derived by incremental maintenance.
	CostViewAnswersReused
	CostViewAnswersRecomputed
	// CostJournalBytes counts bytes appended to the write-ahead journal.
	CostJournalBytes

	costKinds // number of kinds; keep last
)

// Cost is a per-request cost accumulator, carried in a context like a
// trace span. All methods are nil-safe: code charges unconditionally
// and a request without cost accounting pays one predictable-branch nil
// check, mirroring the span-tracing design.
type Cost struct {
	v [costKinds]atomic.Int64
}

// NewCost returns an empty accumulator.
func NewCost() *Cost { return &Cost{} }

// Add charges n units of kind k. No-op on a nil receiver.
func (c *Cost) Add(k CostKind, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v[k].Add(n)
}

// Value returns the accumulated charge of kind k (0 on nil).
func (c *Cost) Value(k CostKind) int64 {
	if c == nil {
		return 0
	}
	return c.v[k].Load()
}

// Charge is the single code path that both the process-wide counter and
// the request's Cost accumulator go through: ctr (when non-nil) always
// receives the increment, cost only when the request carries one. Every
// instrumented site charges via Charge, which is what keeps the global
// px_* counters exact sums of per-request charges.
func Charge(c *Cost, k CostKind, ctr *Counter, n int64) {
	if n == 0 {
		return
	}
	if ctr != nil {
		ctr.Add(n)
	}
	c.Add(k, n)
}

// CostSnapshot is the JSON form of a Cost, attached to trace records,
// the slow-query log, and ?explain=1 responses. Field names match the
// metric families they mirror (see CostKind).
type CostSnapshot struct {
	EngineCompiles          int64 `json:"engine_compiles"`
	EngineBitsetCompiles    int64 `json:"engine_bitset_compiles"`
	EngineMemoHits          int64 `json:"engine_memo_hits"`
	EngineMemoMisses        int64 `json:"engine_memo_misses"`
	EngineComponents        int64 `json:"engine_components"`
	EngineExpansionNodes    int64 `json:"engine_expansion_nodes"`
	EngineMCSamples         int64 `json:"engine_mc_samples"`
	TpwjNodesVisited        int64 `json:"tpwj_nodes_visited"`
	TpwjMatchesTried        int64 `json:"tpwj_matches_tried"`
	KeywordPostingsScanned  int64 `json:"keyword_postings_scanned"`
	KeywordCandidatesPruned int64 `json:"keyword_candidates_pruned"`
	ViewMaintSkipped        int64 `json:"view_maint_skipped"`
	ViewMaintIncremental    int64 `json:"view_maint_incremental"`
	ViewMaintRecomputed     int64 `json:"view_maint_recomputed"`
	ViewAnswersReused       int64 `json:"view_answers_reused"`
	ViewAnswersRecomputed   int64 `json:"view_answers_recomputed"`
	JournalBytes            int64 `json:"journal_bytes"`
}

// Snapshot copies the accumulator into its JSON form. Nil-safe.
func (c *Cost) Snapshot() CostSnapshot {
	if c == nil {
		return CostSnapshot{}
	}
	return CostSnapshot{
		EngineCompiles:          c.Value(CostEngineCompiles),
		EngineBitsetCompiles:    c.Value(CostEngineBitsetCompiles),
		EngineMemoHits:          c.Value(CostEngineMemoHits),
		EngineMemoMisses:        c.Value(CostEngineMemoMisses),
		EngineComponents:        c.Value(CostEngineComponents),
		EngineExpansionNodes:    c.Value(CostEngineExpansionNodes),
		EngineMCSamples:         c.Value(CostEngineMCSamples),
		TpwjNodesVisited:        c.Value(CostTpwjNodesVisited),
		TpwjMatchesTried:        c.Value(CostTpwjMatchesTried),
		KeywordPostingsScanned:  c.Value(CostKeywordPostingsScanned),
		KeywordCandidatesPruned: c.Value(CostKeywordCandidatesPruned),
		ViewMaintSkipped:        c.Value(CostViewMaintSkipped),
		ViewMaintIncremental:    c.Value(CostViewMaintIncremental),
		ViewMaintRecomputed:     c.Value(CostViewMaintRecomputed),
		ViewAnswersReused:       c.Value(CostViewAnswersReused),
		ViewAnswersRecomputed:   c.Value(CostViewAnswersRecomputed),
		JournalBytes:            c.Value(CostJournalBytes),
	}
}

// costKey is the context key for the request's Cost (same pattern as
// the span key in trace.go).
type costKey struct{}

// ContextWithCost returns a context carrying the accumulator.
func ContextWithCost(ctx context.Context, c *Cost) context.Context {
	return context.WithValue(ctx, costKey{}, c)
}

// CostFromContext extracts the accumulator, or nil when the context
// carries none (or is nil itself) — callers charge the result without
// checking, since Cost methods are nil-safe.
func CostFromContext(ctx context.Context) *Cost {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(costKey{}).(*Cost)
	return c
}
