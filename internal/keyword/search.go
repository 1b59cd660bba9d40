package keyword

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/event"
	"repro/internal/obs"
)

// Mode selects the keyword answer semantics.
type Mode int

const (
	// SLCA answers are smallest lowest common ancestors: in a given
	// world, a node whose subtree contains every keyword while no
	// child's subtree does.
	SLCA Mode = iota
	// ELCA answers are exclusive lowest common ancestors: in a given
	// world, a node whose subtree still contains every keyword after
	// excluding the subtrees of descendants that contain every keyword
	// themselves.
	ELCA
)

// ParseMode parses "slca" or "elca" (the empty string defaults to SLCA).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "slca":
		return SLCA, nil
	case "elca":
		return ELCA, nil
	default:
		return 0, fmt.Errorf("keyword: unknown mode %q (want slca or elca)", s)
	}
}

// String renders the mode ("slca" or "elca").
func (m Mode) String() string {
	if m == ELCA {
		return "elca"
	}
	return "slca"
}

// MaxTokens bounds the number of distinct required tokens of one search
// (keyword-presence sets are tracked as uint64 bitmasks).
const MaxTokens = 64

// Request describes one keyword search.
type Request struct {
	// Keywords are the required terms. Each is tokenized like document
	// text; all resulting tokens are required (deduplicated).
	Keywords []string
	// Mode selects SLCA or ELCA semantics.
	Mode Mode
	// MC switches probability computation from exact (Boolean formulas
	// over the witness conditions) to Monte-Carlo estimation by world
	// sampling — the scalable fallback when documents carry many
	// events.
	MC bool
	// Samples is the Monte-Carlo world count (MC only); defaults to
	// 1000.
	Samples int
	// Seed makes Monte-Carlo estimation reproducible (MC only);
	// defaults to 1.
	Seed int64
	// MinProb drops answers with probability below it. Candidates whose
	// monotone upper bound already falls below MinProb are pruned
	// before their exact probability is computed.
	MinProb float64
	// TopK, when positive, keeps only the K most probable answers
	// (ties broken by document order, so the cut is deterministic).
	TopK int
}

// Answer is one keyword-search answer: a document node and the
// probability that it is an SLCA/ELCA answer in a random world.
type Answer struct {
	// Pre is the node's preorder position in the document, its stable
	// identity for one document state.
	Pre int
	// Path locates the node, e.g. /A/S[2]/L.
	Path string
	// Label and Value are the node's own content.
	Label string
	Value string
	// P is the probability that the node is an answer. Exact searches
	// compute it by Shannon expansion over the witness conditions;
	// MC searches estimate it from sampled worlds (clamped to the
	// node's exact upper bound when MinProb forced bounds to be
	// computed).
	P float64
	// Witnesses is the number of keyword witness postings in the
	// node's subtree.
	Witnesses int
}

// Result is the outcome of one search.
type Result struct {
	Answers []Answer
	// Candidates is the number of nodes whose subtree contains every
	// keyword somewhere in the document (the evaluator's working set).
	Candidates int
	// Pruned is the number of candidates the MinProb upper bound
	// eliminated without computing an exact probability.
	Pruned int
}

// tolerance absorbs floating-point disagreement between a candidate's
// upper bound and its exact probability, so bound-based pruning can
// never drop an answer the MinProb filter would keep.
const tolerance = 1e-9

// Search runs one keyword search against the index. It is safe for
// concurrent use (the index is immutable).
func Search(ix *Index, req Request) (*Result, error) {
	return SearchContext(context.Background(), ix, req)
}

// SearchContext is Search honoring context cancellation: the candidate
// bound/probability loops check ctx between candidates (and the
// per-candidate Shannon expansions check it internally), and Monte-Carlo
// world sampling checks it between samples. On cancellation the partial
// result is discarded and the context's error returned. A context that
// can never be cancelled costs nothing over Search.
func SearchContext(ctx context.Context, ix *Index, req Request) (*Result, error) {
	// The cost accumulator must be read off the original context: poll is
	// nilled for uncancellable contexts, but the full ctx (cost and all)
	// still flows to the probability-engine calls below.
	cost := obs.CostFromContext(ctx)
	poll := ctx
	if poll != nil && poll.Done() == nil {
		poll = nil
	}
	tokens, err := RequiredTokens(req.Keywords)
	if err != nil {
		return nil, err
	}
	if req.MinProb < 0 || req.MinProb > 1 {
		return nil, fmt.Errorf("keyword: min probability %v outside [0,1]", req.MinProb)
	}
	ctrSearches.Add(1)
	var scanned int64
	for _, tok := range tokens {
		scanned += int64(len(ix.postings[tok]))
	}
	obs.Charge(cost, obs.CostKeywordPostingsScanned, ctrPostingsScanned, scanned)
	res := &Result{}
	cands := ix.candidates(tokens)
	res.Candidates = len(cands)
	if len(cands) == 0 {
		return res, nil
	}

	ev := &evaluator{
		ix:      ix,
		tokens:  tokens,
		contain: make(map[int32]event.Formula),
		wit:     make(map[int64]event.DNF),
	}

	// The monotone upper bound: a node is an answer only in worlds
	// where its subtree contains every keyword, so
	//
	//	P(answer at v) ≤ P(contain v) ≤ min over keywords k of
	//	                  P(some witness for k under v exists).
	//
	// Bounds are computed only when the threshold can use them; each is
	// one witness-DNF probability, far cheaper than the SLCA/ELCA
	// formula it may spare us.
	bounds := make(map[int32]float64, len(cands))
	kept := cands
	if req.MinProb > 0 {
		kept = kept[:0]
		for _, v := range cands {
			if poll != nil {
				if cerr := poll.Err(); cerr != nil {
					return nil, cerr
				}
			}
			b, err := ev.upperBound(ctx, v)
			if err != nil {
				return nil, err
			}
			bounds[v] = b
			if b < req.MinProb-tolerance {
				obs.Charge(cost, obs.CostKeywordCandidatesPruned, ctrThresholdPrunes, 1)
				res.Pruned++
				continue
			}
			kept = append(kept, v)
		}
	}

	probs := make(map[int32]float64, len(kept))
	if req.MC {
		if err := estimateWorlds(poll, cost, ix, tokens, req, kept, probs); err != nil {
			return nil, err
		}
		// An estimate can exceed the candidate's provable upper bound
		// by sampling noise; clamping is both a strictly better
		// estimator and what makes bound-based pruning exact: a pruned
		// candidate could never have survived the MinProb filter.
		for v, b := range bounds {
			if p, ok := probs[v]; ok && p > b {
				probs[v] = b
			}
		}
	} else {
		for _, v := range kept {
			if poll != nil {
				if cerr := poll.Err(); cerr != nil {
					return nil, cerr
				}
			}
			f, err := ev.answerFormula(v, req.Mode)
			if err != nil {
				return nil, err
			}
			p, err := ix.Tree().Table.ProbFormulaCtx(ctx, f)
			if err != nil {
				return nil, fmt.Errorf("keyword: %w", err)
			}
			probs[v] = p
		}
	}

	for _, v := range kept {
		p := probs[v]
		if p == 0 || p < req.MinProb {
			continue
		}
		w := 0
		for k := range tokens {
			w += len(ev.witnessDNF(k, v))
		}
		res.Answers = append(res.Answers, Answer{
			Pre:       int(v),
			Path:      ix.Path(v),
			Label:     ix.doc.Label(v),
			Value:     ix.doc.Value(v),
			P:         p,
			Witnesses: w,
		})
	}
	sort.Slice(res.Answers, func(i, j int) bool {
		if res.Answers[i].P != res.Answers[j].P {
			return res.Answers[i].P > res.Answers[j].P
		}
		return res.Answers[i].Pre < res.Answers[j].Pre
	})
	if req.TopK > 0 && len(res.Answers) > req.TopK {
		res.Answers = res.Answers[:req.TopK]
	}
	return res, nil
}

// RequiredTokens tokenizes, deduplicates and sorts the query keywords
// into the canonical required-token set of a search. Callers caching
// results key them by this canonical form, so keyword order and
// punctuation variants share entries.
func RequiredTokens(keywords []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, k := range keywords {
		for _, tok := range Tokenize(k) {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("keyword: no searchable tokens in keywords %q", keywords)
	}
	if len(out) > MaxTokens {
		return nil, fmt.Errorf("keyword: %d distinct tokens exceed the limit %d", len(out), MaxTokens)
	}
	sort.Strings(out)
	return out, nil
}

// candidates finds every node whose subtree contains at least one
// witness for every required token, by merging the posting lists in
// document order through an ancestor stack: postings are visited in
// preorder position order; the stack holds the root-to-current path
// restricted to posting ancestors, each entry accumulating the token
// set seen in the scanned part of its subtree. When an entry is popped
// its subtree is fully scanned, its mask folds into its parent, and a
// full mask makes it a candidate. Only O(postings × depth) stack work
// is done — subtrees without postings are never visited.
func (ix *Index) candidates(tokens []string) []int32 {
	full := uint64(1)<<uint(len(tokens)) - 1

	// ownMask maps posting nodes to their direct token sets.
	type posting struct {
		pre  int32
		mask uint64
	}
	var merged []posting
	for bit, tok := range tokens {
		for _, pre := range ix.postings[tok] {
			if ix.sat[pre] {
				merged = append(merged, posting{pre, uint64(1) << uint(bit)})
			}
		}
	}
	if len(merged) == 0 {
		return nil
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].pre < merged[j].pre })
	// Merge same-node postings (a node carrying several tokens).
	dedup := merged[:1]
	for _, p := range merged[1:] {
		if p.pre == dedup[len(dedup)-1].pre {
			dedup[len(dedup)-1].mask |= p.mask
		} else {
			dedup = append(dedup, p)
		}
	}

	type frame struct {
		pre  int32
		end  int32
		mask uint64
	}
	var stack []frame
	var cands []int32
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.mask == full {
			cands = append(cands, top.pre)
		}
		if len(stack) > 0 {
			stack[len(stack)-1].mask |= top.mask
		}
	}
	for _, p := range dedup {
		// Close every frame whose subtree ends before this posting.
		for len(stack) > 0 && stack[len(stack)-1].end <= p.pre {
			pop()
		}
		// Open the ancestors of p below the current top (they carry no
		// postings of their own so far, or they'd be on the stack).
		var chain []int32
		for v := p.pre; v >= 0; v = ix.doc.Parent(v) {
			if len(stack) > 0 && stack[len(stack)-1].pre == v {
				break
			}
			chain = append(chain, v)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			v := chain[i]
			stack = append(stack, frame{pre: v, end: ix.doc.End(v)})
		}
		stack[len(stack)-1].mask |= p.mask
	}
	for len(stack) > 0 {
		pop()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return cands
}

// evaluator builds the probability formulas of one search, memoizing
// the per-node containment formulas (a parent's SLCA/ELCA formula
// refers to its children's containment) and the per-(token, node)
// witness DNFs they and the pruning bound share.
type evaluator struct {
	ix      *Index
	tokens  []string
	contain map[int32]event.Formula
	wit     map[int64]event.DNF
}

// witnessDNF returns the disjunction of the witness path conditions for
// token index k under node v — one clause per witness, the containment
// factor for that keyword — memoized so the pruning bound, the answer
// formulas and the witness count never re-scan the posting lists.
func (e *evaluator) witnessDNF(k int, v int32) event.DNF {
	key := int64(k)<<32 | int64(v)
	if d, ok := e.wit[key]; ok {
		return d
	}
	var d event.DNF
	for _, u := range e.ix.witnesses(e.tokens[k], v) {
		d = append(d, e.ix.path[u])
	}
	e.wit[key] = d
	return d
}

// containF is the containment event of node v: its subtree holds a
// witness for every keyword (which entails that v itself exists, since
// every witness path condition includes v's). Per keyword it is the
// disjunction of the witness path conditions — the DNF over
// match-witness conjunctions — and the conjunction over keywords makes
// the full formula.
func (e *evaluator) containF(v int32) event.Formula {
	if f, ok := e.contain[v]; ok {
		return f
	}
	parts := make([]event.Formula, 0, len(e.tokens))
	for k := range e.tokens {
		// An empty witness DNF is false: no witness, no containment.
		parts = append(parts, event.FDNF(e.witnessDNF(k, v)))
	}
	f := event.FAnd(parts...)
	e.contain[v] = f
	return f
}

// upperBound computes min over keywords of P(some witness exists under
// v): each factor of the containment formula alone, so it dominates
// P(contain v) and hence the answer probability in either mode.
func (e *evaluator) upperBound(ctx context.Context, v int32) (float64, error) {
	bound := 1.0
	for k := range e.tokens {
		p, err := e.ix.Tree().Table.ProbDNFCtx(ctx, e.witnessDNF(k, v))
		if err != nil {
			return 0, fmt.Errorf("keyword: %w", err)
		}
		if p < bound {
			bound = p
		}
	}
	return bound, nil
}

// answerFormula builds the event "v is a Mode answer" as a Boolean
// formula over the document's events.
//
// SLCA: v's subtree contains every keyword and no child's subtree does
// (containment is monotone down the tree, so excluding children
// excludes all descendants):
//
//	contain(v) ∧ ¬ ∨_{c child of v} contain(c)
//
// ELCA: for every keyword there is a witness that is not hidden under a
// descendant containing every keyword itself. A witness u under child c
// is hidden iff some node d with v < d ≤ u has contain(d) — and by
// monotonicity that reduces to contain(c): if c does not contain every
// keyword, no deeper node does. So per keyword k:
//
//	(v itself carries k) ∨ ∨_{c child of v} (¬contain(c) ∧ ∨_{u ∈ W_k(c)} path(u))
//
// conjoined over keywords, with v's own path condition guarding the
// direct-carry disjunct.
func (e *evaluator) answerFormula(v int32, mode Mode) (event.Formula, error) {
	if mode == SLCA {
		parts := []event.Formula{e.containF(v)}
		for c := v + 1; c < e.ix.doc.End(v); c = e.ix.doc.End(c) {
			if f := e.containF(c); f != event.FFalse {
				parts = append(parts, event.FNot(f))
			}
		}
		return event.FAnd(parts...), nil
	}
	var conj []event.Formula
	for _, tok := range e.tokens {
		var alts []event.Formula
		if e.ix.hasToken(tok, v) && e.ix.sat[v] {
			alts = append(alts, event.FCond(e.ix.path[v]))
		}
		// Group the remaining witnesses by the child subtree holding
		// them; witnesses under a child that contains every keyword are
		// excluded as a group.
		byChild := make(map[int32]event.DNF)
		var order []int32
		for _, u := range e.ix.witnesses(tok, v) {
			if u == v {
				continue
			}
			c := e.ix.childToward(v, u)
			if _, ok := byChild[c]; !ok {
				order = append(order, c)
			}
			byChild[c] = append(byChild[c], e.ix.path[u])
		}
		for _, c := range order {
			alts = append(alts, event.FAnd(
				event.FNot(e.containF(c)),
				event.FDNF(byChild[c]),
			))
		}
		conj = append(conj, event.FOr(alts...))
	}
	return event.FAnd(conj...), nil
}

// estimateWorlds estimates every kept candidate's answer probability by
// sampling worlds: each sample draws one assignment of the document's
// events (as fuzzy.Tree.Sample does), determines which nodes exist, and
// evaluates the SLCA/ELCA sets of that world with the linear mask
// recurrence. All candidates are estimated from the same worlds, so the
// estimates are independent of which candidates pruning kept.
func estimateWorlds(ctx context.Context, cost *obs.Cost, ix *Index, tokens []string, req Request, kept []int32, probs map[int32]float64) error {
	if len(kept) == 0 {
		return nil // everything pruned; don't pay for the sampling loop
	}
	samples := req.Samples
	if samples <= 0 {
		samples = 1000
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	r := rand.New(rand.NewSource(seed))
	ft := ix.Tree()
	events := ft.Events()
	for _, ev := range events {
		if !ft.Table.Has(ev) {
			return fmt.Errorf("keyword: unknown event %q in document", ev)
		}
	}

	full := uint64(1)<<uint(len(tokens)) - 1
	n := ix.Len()
	own := make([]uint64, n)
	for bit, tok := range tokens {
		for _, pre := range ix.postings[tok] {
			own[pre] |= uint64(1) << uint(bit)
		}
	}
	keptSet := make(map[int32]bool, len(kept))
	for _, v := range kept {
		keptSet[v] = true
	}

	exists := make([]bool, n)
	mask := make([]uint64, n)
	excl := make([]uint64, n) // ELCA: union of non-full child masks
	hits := make(map[int32]int, len(kept))
	done := 0
	defer func() { event.ChargeMCSamples(cost, int64(done)) }()
	for s := 0; s < samples; s++ {
		// One sample is O(nodes); a per-sample poll is noise next to it.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		done++
		a := ft.Table.SampleAssignment(events, r)
		for i := range n {
			p := ix.doc.Parent(int32(i))
			up := p < 0 || exists[p]
			exists[i] = up && (i == 0 || ix.path[i].Eval(a))
			if exists[i] {
				mask[i] = own[i]
			} else {
				mask[i] = 0
			}
			excl[i] = 0
		}
		// Children precede nothing: reverse preorder folds each subtree
		// into its parent before the parent is read.
		for i := n - 1; i > 0; i-- {
			if !exists[i] {
				continue
			}
			p := ix.doc.Parent(int32(i))
			if mask[i] != full {
				excl[p] |= mask[i]
			}
			mask[p] |= mask[i]
		}
		for v := range keptSet {
			if !exists[v] {
				continue
			}
			ok := false
			switch req.Mode {
			case SLCA:
				if mask[v] == full {
					ok = true
					for c := v + 1; c < ix.doc.End(v); c = ix.doc.End(c) {
						if exists[c] && mask[c] == full {
							ok = false
							break
						}
					}
				}
			case ELCA:
				ok = own[v]|excl[v] == full
			}
			if ok {
				hits[v]++
			}
		}
	}
	for _, v := range kept {
		probs[v] = float64(hits[v]) / float64(samples)
	}
	return nil
}
