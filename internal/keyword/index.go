// Package keyword implements keyword search over probabilistic XML
// documents: ELCA and SLCA answer semantics (Zhou et al., "ELCA
// Evaluation for Keyword Search on Probabilistic XML Data"; Li et al.,
// "Quasi-SLCA based Keyword Query Processing over Probabilistic XML
// Data") adapted to the fuzzy-tree model.
//
// A search takes a bag of keywords and returns document nodes together
// with the exact probability that the node is an SLCA (smallest lowest
// common ancestor) or ELCA (exclusive lowest common ancestor) answer in
// a random possible world of the document. The evaluator runs on an
// inverted Index (token → postings in document order), merges the
// postings with a stack to find candidate nodes, and computes each
// candidate's probability from the witness path conditions via the
// internal/event machinery — as a DNF of match-witness conjunctions for
// containment, sharpened to SLCA/ELCA semantics with negation (a
// Boolean formula, like TPWJ queries with forbidden sub-patterns).
// Probability-threshold search (MinProb) prunes candidates early with a
// monotone upper bound; see docs/SEARCH.md for the semantics and why
// the bound is safe.
package keyword

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/obs"
	"repro/internal/tpwj"
)

// package counters (lock-free: indexes are built and searched
// concurrently by server requests), rendered by pxserve's /stats and
// /metrics as the px_keyword_* series.
var (
	ctrIndexBuilds     = obs.Default().Counter("px_keyword_index_builds_total", "inverted keyword indexes built")
	ctrPostings        = obs.Default().Counter("px_keyword_postings_total", "inverted-index postings built")
	ctrSearches        = obs.Default().Counter("px_keyword_searches_total", "keyword searches evaluated")
	ctrPostingsScanned = obs.Default().Counter("px_keyword_postings_scanned_total", "postings consulted by search candidate enumeration")
	ctrThresholdPrunes = obs.Default().Counter("px_keyword_threshold_prunes_total", "candidates pruned by the MinProb upper bound")
)

// Counters is a snapshot of the package counters: how many inverted
// indexes were built, the total postings they held, how many searches
// ran, and how many candidates the MinProb upper bound pruned before
// their exact probability was computed.
type Counters struct {
	IndexBuilds     int64 `json:"index_builds"`
	Postings        int64 `json:"postings"`
	Searches        int64 `json:"searches"`
	PostingsScanned int64 `json:"postings_scanned"`
	ThresholdPrunes int64 `json:"threshold_prunes"`
}

// ReadCounters returns the current counter values.
func ReadCounters() Counters {
	return Counters{
		IndexBuilds:     ctrIndexBuilds.Value(),
		Postings:        ctrPostings.Value(),
		Searches:        ctrSearches.Value(),
		PostingsScanned: ctrPostingsScanned.Value(),
		ThresholdPrunes: ctrThresholdPrunes.Value(),
	}
}

// Index is a per-document inverted index for keyword search: every
// token of every node label and value maps to the posting list of nodes
// carrying it, in document (preorder) order. It is built over the flat
// form of one document version (tpwj.Doc) and reads the document's
// structure — parent, subtree end, label, value — from it; what the
// index adds is only what keyword search needs beyond the structure:
// the postings and, per node, its path condition and whether that is
// satisfiable. The index is safe for concurrent searches and belongs to
// its version: a changed document is a new version with a new index.
type Index struct {
	doc *tpwj.Doc
	// path is, per node, the effective path condition: the normalized
	// conjunction of the node's own condition and all its ancestors'.
	// A node exists in a world iff its path condition holds. Nodes
	// without a condition of their own share their parent's slice.
	path []event.Condition
	// sat is false where path contains a contradictory literal pair:
	// the node exists in no world, so it is never a witness or an
	// answer.
	sat      []bool
	postings map[string][]int32 // token → preorder positions, ascending
}

// NewIndex flattens a document snapshot and builds its inverted index
// (IndexDoc).
func NewIndex(ft *fuzzy.Tree) *Index {
	return IndexDoc(tpwj.FlattenFuzzy(ft))
}

// IndexDoc builds the inverted index of one document version from its
// flat form, which must have been built by tpwj.FlattenFuzzy.
func IndexDoc(d *tpwj.Doc) *Index {
	n := d.Len()
	ix := &Index{
		doc:      d,
		path:     make([]event.Condition, n),
		sat:      make([]bool, n),
		postings: make(map[string][]int32),
	}
	for v := int32(0); v < int32(n); v++ {
		path := d.Fuzzy(v).Cond
		if p := d.Parent(v); p >= 0 {
			if len(path) == 0 {
				path = ix.path[p]
			} else {
				path = ix.path[p].And(path)
			}
		} else {
			path = path.Normalize()
		}
		ix.path[v] = path
		ix.sat[v] = path.Satisfiable()
		for _, tok := range Tokenize(d.Label(v) + " " + d.Value(v)) {
			// A label and value sharing a token still yield one posting:
			// postings are per (token, node).
			if l := ix.postings[tok]; len(l) == 0 || l[len(l)-1] != v {
				ix.postings[tok] = append(ix.postings[tok], v)
				ctrPostings.Add(1)
			}
		}
	}
	ctrIndexBuilds.Add(1)
	return ix
}

// Tree returns the document snapshot the index was built from.
func (ix *Index) Tree() *fuzzy.Tree { return ix.doc.Tree() }

// Len returns the number of indexed nodes.
func (ix *Index) Len() int { return ix.doc.Len() }

// Postings returns the total number of (token, node) postings.
func (ix *Index) Postings() int {
	n := 0
	for _, l := range ix.postings {
		n += len(l)
	}
	return n
}

// Tokens returns the sorted distinct tokens of the index.
func (ix *Index) Tokens() []string {
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Tokenize splits text into lowercase alphanumeric tokens: maximal runs
// of letters and digits, everything else a separator. Both index terms
// and query keywords go through it, so "Kafka," matches "kafka".
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			flush()
		}
	}
	flush()
	return out
}

// witnesses returns the postings of token within the subtree interval
// of node v: the candidate's match witnesses for that keyword.
// Unsatisfiable nodes (existing in no world) are excluded.
func (ix *Index) witnesses(tok string, v int32) []int32 {
	list := ix.postings[tok]
	end := ix.doc.End(v)
	lo := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	hi := sort.Search(len(list), func(i int) bool { return list[i] >= end })
	if lo == hi {
		return nil
	}
	out := make([]int32, 0, hi-lo)
	for _, u := range list[lo:hi] {
		if ix.sat[u] {
			out = append(out, u)
		}
	}
	return out
}

// hasToken reports whether node v itself carries the token.
func (ix *Index) hasToken(tok string, v int32) bool {
	list := ix.postings[tok]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// childToward returns the child of v whose subtree contains u (v must
// be a proper ancestor of u).
func (ix *Index) childToward(v, u int32) int32 {
	for c := u; ; c = ix.doc.Parent(c) {
		if ix.doc.Parent(c) == v {
			return c
		}
	}
}

// Path renders the node's location as a rooted label path with 1-based
// positional predicates among same-label siblings, e.g. /A/S[2]/L.
// The predicate is omitted when the node is the only child with its
// label.
func (ix *Index) Path(pre int32) string {
	var steps []string
	for v := pre; v >= 0; v = ix.doc.Parent(v) {
		steps = append(steps, ix.step(v))
	}
	var b strings.Builder
	for i := len(steps) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(steps[i])
	}
	return b.String()
}

// step renders one path step of node v, counting same-label siblings by
// walking the parent's child intervals.
func (ix *Index) step(v int32) string {
	d := ix.doc
	label, p := d.Label(v), d.Parent(v)
	if p < 0 {
		return label
	}
	idx, total := 0, 0
	for c := p + 1; c < d.End(p); c = d.End(c) {
		if d.Label(c) == label {
			total++
			if c <= v {
				idx++
			}
		}
	}
	if total <= 1 {
		return label
	}
	return label + "[" + strconv.Itoa(idx) + "]"
}
