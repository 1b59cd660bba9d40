package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/server"
	"repro/internal/sim"
)

// Route kinds of the op stream. They name the server routes the
// benchmark drives; per-route latencies are keyed by them.
const (
	kindQuery    = "query"
	kindSearch   = "search"
	kindUpdate   = "update"
	kindViewRead = "view_read"
	kindGet      = "get"
	kindSimplify = "simplify"
)

// op is one pre-generated request. Everything the client sends is
// fixed here, before timing starts, so the timed loops only copy bytes.
type op struct {
	Kind   string
	Method string
	Path   string
	Body   []byte
	Doc    int
	// Update is the transaction an update op carries; the model and the
	// traced replay build it with sim.BuildTransaction.
	Update *sim.UpdateSpec
}

// viewDef is one materialized view registered on every document in
// setup.
type viewDef struct {
	Name  string
	Query string
}

// docShape fixes how one workload's documents are generated.
type docShape struct {
	Sections int
	Events   int
	// SCond is the probability that a section carries a literal; TLits
	// the number of literals on every title leaf. Negated says one
	// title literal in three is negated.
	SCond   float64
	TLits   int
	Negated bool
	// Vocab is the title vocabulary size; WordsPerTitle how many words
	// a title holds.
	Vocab         int
	WordsPerTitle int
}

// workload is one frozen traffic mix. Rate, ClosedPerSec and LimitMS
// were fixed from this commit's measurements (see README.md) and must
// not be edited by a change that claims a gain.
type workload struct {
	Name  string
	Why   string
	Docs  int
	Shape docShape
	Views []viewDef
	// LimitMS is the latency limit of within_limit_ratio.
	LimitMS float64
	// Rate is the frozen open-loop arrival rate in ops/s; ClosedPerSec
	// the frozen number of closed-loop ops issued per measured second.
	Rate         float64
	ClosedPerSec float64
	// TraceOps is the number of ops the traced replay covers at scale 1.
	TraceOps int
	// Mix and SubMix are the block weights of the workload's op kinds
	// and of its second-level choice (see the next* functions).
	Mix, SubMix []int
	// next draws client c's next op on document doc.
	next func(g *generator, c, doc int) op
	// popularity weighs the n documents of one client's partition.
	popularity func(n int) []int
}

// Phase shares of the --seconds budget. The closed and open phases are
// sized in ops (frozen per-second counts times these shares), never in
// wall time, so both sides of a comparison walk the same states.
const (
	closedShare = 0.4
	openShare   = 0.6
	warmShare   = 0.05
)

var workloads = []*workload{
	{
		Name: "query_cold",
		Why:  "24x512-section docs, uniform point/XPath/join queries over 12k keys >> 256 cache entries: per-request validate, tree copy, index and tpwj match do the work; store, update and view idle",
		Docs: 24, Shape: docShape{Sections: 512, Events: 16, SCond: 0.5, TLits: 1, Negated: true, Vocab: 64, WordsPerTitle: 2},
		LimitMS: 25, Rate: 350, ClosedPerSec: 900, TraceOps: 600,
		Mix: []int{14, 3, 3}, SubMix: []int{1, 1, 1},
		next: nextQueryCold, popularity: uniform,
	},
	{
		Name: "prob_heavy",
		Why:  "32x96-section docs, 32 events, 3-word titles fold ~26 three-literal clauses into one answer DNF, 20% Monte-Carlo: event compile, Shannon memo and sampling dominate, tpwj is small",
		Docs: 32, Shape: docShape{Sections: 96, Events: 32, SCond: 1, TLits: 2, Negated: true, Vocab: 3, WordsPerTitle: 1},
		LimitMS: 50, Rate: 280, ClosedPerSec: 700, TraceOps: 600,
		Mix: []int{4, 1}, SubMix: []int{1, 1, 1},
		next: nextProbHeavy, popularity: uniform,
	},
	{
		Name: "update_durable",
		Why:  "16x256-section docs, 88% insert/delete transactions with minted events, 10% GET, 2% simplify: ApplyFuzzy, full-state XML, two journal fsyncs and the doc write; journal and docs grow",
		Docs: 16, Shape: docShape{Sections: 256, Events: 16, SCond: 0.5, TLits: 1, Negated: true, Vocab: 64, WordsPerTitle: 2},
		LimitMS: 50, Rate: 180, ClosedPerSec: 300, TraceOps: 300,
		Mix: []int{44, 5, 1}, SubMix: []int{1},
		next: nextUpdateDurable, popularity: uniform,
	},
	{
		Name: "mixed_serving",
		Why:  "48x16-section docs, Zipf(1.2) popularity, 2 views each: cacheable queries, searches, updates, view reads and GETs race on hot docs; cache invalidation, index rebuilds, view upkeep",
		Docs: 48, Shape: docShape{Sections: 16, Events: 8, SCond: 0.5, TLits: 1, Negated: true, Vocab: 24, WordsPerTitle: 2},
		Views: []viewDef{
			{Name: "cat", Query: "A(S(C=c0, T $x))"},
			{Name: "groups", Query: "A(S(G(L $l)))"},
		},
		LimitMS: 25, Rate: 1200, ClosedPerSec: 2900, TraceOps: 1500,
		Mix: []int{35, 20, 20, 17, 7, 1}, SubMix: []int{1, 1, 1, 1, 1},
		next: nextMixedServing, popularity: zipf,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func docName(d int) string { return fmt.Sprintf("d%03d", d) }

func word(i int) string { return fmt.Sprintf("kw%02d", i) }

// categories returns how many category values a document of n sections
// uses: eight sections share one category.
func categories(n int) int { return max(1, n/8) }

// seedFor derives an independent stream seed from the run seed and a
// purpose string, so documents, ops and checks never share draws.
func seedFor(seed int64, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return int64(h.Sum64() >> 1)
}

// deck deals values in shuffled blocks: every block holds value v
// exactly weights[v] times, so the mix of a stream is fixed by the
// weights and only its order by the seed. Runs with different seeds
// then do the same amount of each kind of work, which keeps the
// seed-to-seed spread of the metrics below their bounds.
type deck struct {
	r     *rand.Rand
	cards []int
	pos   int
}

func newDeck(r *rand.Rand, weights ...int) *deck {
	d := &deck{r: r}
	for v, n := range weights {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, v)
		}
	}
	return d
}

// uniformDeck deals 0..n-1, each once per block.
func uniformDeck(r *rand.Rand, n int) *deck { return newDeck(r, uniform(n)...) }

func (d *deck) draw() int {
	if d.pos == 0 {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	v := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return v
}

// buildDoc generates document d: a root A of keyed sections
// S(K:s<i>, T:<words>, C:c<k>), with event conditions on sections and
// titles as the shape asks.
func buildDoc(seed int64, w *workload, d int) *fuzzy.Tree {
	return shapeDoc(rand.New(rand.NewSource(seedFor(seed, w.Name+"/doc/"+docName(d)))), w.Shape, d)
}

func shapeDoc(r *rand.Rand, sh docShape, d int) *fuzzy.Tree {
	tab := event.NewTable()
	ids := make([]event.ID, sh.Events)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("e%d", i+1))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	// Every choice is dealt from a deck, so each event guards the same
	// number of nodes and each word titles the same number of sections
	// whatever the seed; the seed decides which.
	var (
		sEvents  = uniformDeck(r, sh.Events)
		tEvents  = uniformDeck(r, sh.Events)
		words    = uniformDeck(r, sh.Vocab)
		hasSCond = newDeck(r, int(10*sh.SCond), 10-int(10*sh.SCond))
		hasTCond = newDeck(r, 3, 7)
		negated  = newDeck(r, 2, 1)
	)
	root := fuzzy.NewNode("A")
	cats := categories(sh.Sections)
	for i := 0; i < sh.Sections; i++ {
		s := fuzzy.NewNode("S")
		used := map[int]bool{}
		if hasSCond.draw() == 0 {
			e := sEvents.draw()
			used[e] = true
			s.WithCond(event.Cond(event.Pos(ids[e])))
		}
		title := ""
		for k := 0; k < sh.WordsPerTitle; k++ {
			if k > 0 {
				title += " "
			}
			title += word(words.draw())
		}
		t := fuzzy.NewLeaf("T", title)
		var lits event.Condition
		for k := 0; k < sh.TLits && (sh.TLits > 1 || hasTCond.draw() == 0); k++ {
			e := tEvents.draw()
			for used[e] {
				e = tEvents.draw()
			}
			used[e] = true
			l := event.Pos(ids[e])
			if sh.Negated && negated.draw() == 1 {
				l = l.Negate()
			}
			lits = append(lits, l)
		}
		if len(lits) > 0 {
			t.WithCond(lits)
		}
		s.Add(
			fuzzy.NewLeaf("K", fmt.Sprintf("s%d", i)),
			t,
			fuzzy.NewLeaf("C", fmt.Sprintf("c%d", (i*7+d)%cats)),
		)
		root.Add(s)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// generator draws the op stream. It is a pure function of the seed and
// the workload: per-document state (live inserted groups) is generator
// state, never read back from the server. Each client has its own
// decks, so both clients carry exactly the workload's mix.
type generator struct {
	w *workload
	r *rand.Rand
	// docs deals a client's documents (uniformly or by Zipf weight);
	// kinds, subKinds, edits, confs and the search decks deal the
	// workload's op mix.
	docs, kinds, subKinds, edits, confs [clients]*deck
	twoWords, elca, minProb             [clients]*deck
	seq                                 int
	// live[d] lists the sequence numbers of groups inserted into
	// document d and not yet chosen for deletion.
	live [][]int
}

func newGenerator(seed int64, w *workload) *generator {
	r := rand.New(rand.NewSource(seedFor(seed, w.Name+"/ops")))
	g := &generator{w: w, r: r, live: make([][]int, w.Docs)}
	for c := 0; c < clients; c++ {
		g.docs[c] = newDeck(r, w.popularity(partitionSize(w.Docs, c))...)
		g.kinds[c] = newDeck(r, w.Mix...)
		g.subKinds[c] = newDeck(r, w.SubMix...)
		g.edits[c] = newDeck(r, 13, 7) // 65 % insert, 35 % delete
		g.confs[c] = uniformDeck(r, len(confidences))
		g.twoWords[c] = newDeck(r, 1, 1)
		g.elca[c] = newDeck(r, 4, 1)    // 20 % ELCA
		g.minProb[c] = newDeck(r, 3, 1) // 25 % with min_prob 0.3
	}
	return g
}

// partitionSize is the number of documents client c owns (doc index
// mod 2 == c).
func partitionSize(docs, c int) int { return (docs - c + 1) / 2 }

// ops generates the first n ops of the stream. Op i belongs to client
// i mod 2 and targets one of that client's documents, so each
// document's op order is fixed by the seed alone.
func (g *generator) ops(n int) []op {
	out := make([]op, n)
	for i := range out {
		c := i % clients
		out[i] = g.w.next(g, c, c+clients*g.docs[c].draw())
	}
	return out
}

// uniform weighs a client's n documents equally.
func uniform(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// zipf weighs a client's n documents by Zipf(1.2) popularity, as card
// counts in a block of about 200: the client's first document is the
// hot one.
func zipf(n int) []int {
	var norm float64
	for k := 1; k <= n; k++ {
		norm += math.Pow(float64(k), -1.2)
	}
	w := make([]int, n)
	for k := range w {
		w[k] = max(1, int(math.Round(200*math.Pow(float64(k+1), -1.2)/norm)))
	}
	return w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and numbers always marshal
	}
	return b
}

func queryOp(doc int, req server.QueryRequest) op {
	return op{Kind: kindQuery, Method: "POST", Path: "/docs/" + docName(doc) + "/query", Body: mustJSON(req), Doc: doc}
}

func getOp(doc int) op {
	return op{Kind: kindGet, Method: "GET", Path: "/docs/" + docName(doc), Doc: doc}
}

func simplifyOp(doc int) op {
	return op{Kind: kindSimplify, Method: "POST", Path: "/docs/" + docName(doc) + "/simplify", Doc: doc}
}

// nextQueryCold: Mix is point TPWJ / point XPath / pattern, SubMix the
// three pattern shapes (child, descendant, join), each with at most 20
// answers.
func nextQueryCold(g *generator, c, doc int) op {
	n := g.w.Shape.Sections
	i := g.r.Intn(n)
	switch g.kinds[c].draw() {
	case 0:
		return queryOp(doc, server.QueryRequest{Query: fmt.Sprintf("A(S(K=s%d, T $x))", i)})
	case 1:
		return queryOp(doc, server.QueryRequest{Query: fmt.Sprintf("/A/S[K='s%d']/T", i), Syntax: "xpath"})
	}
	cat := g.r.Intn(categories(n))
	switch g.subKinds[c].draw() {
	case 0:
		return queryOp(doc, server.QueryRequest{Query: fmt.Sprintf("A(S(C=c%d, T $x))", cat)})
	case 1:
		return queryOp(doc, server.QueryRequest{Query: fmt.Sprintf("A(//C=c%d $x)", cat)})
	default:
		return queryOp(doc, server.QueryRequest{
			Query: fmt.Sprintf("A(S(K=s%d, C $x), S(C $y, T $t)) where $x = $y", i)})
	}
}

// nextProbHeavy: Mix is exact / Monte-Carlo, SubMix deals the title
// words. The keyed first branch makes 96 x 3 x 32 distinct cache keys;
// the second folds every section titled with the word into one answer
// DNF.
func nextProbHeavy(g *generator, c, doc int) op {
	sh := g.w.Shape
	req := server.QueryRequest{Query: fmt.Sprintf("A(S(K=s%d), S(T=%s))", g.r.Intn(sh.Sections), word(g.subKinds[c].draw()))}
	if g.kinds[c].draw() == 1 {
		req.Mode, req.Samples, req.Seed = "mc", 2000, 1+g.r.Int63n(1<<30)
	}
	return queryOp(doc, req)
}

// confidences are the transaction confidences dealt to updates: two in
// three mint a fresh event.
var confidences = []float64{1, 0.9, 0.8}

// nextUpdate deals an insert of G(L:w<seq>) under a keyed section
// (65 %) or a delete of a previously inserted group (35 %). With a
// positive cap a document never holds more than cap live groups and
// deletes are certain, so documents stay bounded; without one they grow
// as the paper describes.
func (g *generator) nextUpdate(c, doc, maxLive int) op {
	u := &sim.UpdateSpec{Confidence: confidences[g.confs[c].draw()]}
	live := g.live[doc]
	del := g.edits[c].draw() == 1 && len(live) > 0
	if maxLive > 0 && len(live) >= maxLive {
		del = true
	}
	req := server.UpdateRequest{}
	if del {
		k := g.r.Intn(len(live))
		seq := live[k]
		g.live[doc] = append(live[:k], live[k+1:]...)
		if maxLive > 0 {
			u.Confidence = 1
		}
		u.Query, u.Var = fmt.Sprintf("A(S(G $g(L=w%d)))", seq), "g"
		req.Ops = []server.UpdateOp{{Op: "delete", Var: u.Var}}
	} else {
		g.seq++
		g.live[doc] = append(g.live[doc], g.seq)
		u.Query, u.Var = fmt.Sprintf("A(S $s(K=s%d))", g.r.Intn(g.w.Shape.Sections)), "s"
		u.Insert = fmt.Sprintf("G(L:w%d)", g.seq)
		req.Ops = []server.UpdateOp{{Op: "insert", Var: u.Var, Tree: u.Insert}}
	}
	req.Query, req.Confidence = u.Query, u.Confidence
	return op{Kind: kindUpdate, Method: "POST", Path: "/docs/" + docName(doc) + "/update", Body: mustJSON(req), Doc: doc, Update: u}
}

// nextUpdateDurable: Mix is update / GET / simplify.
func nextUpdateDurable(g *generator, c, doc int) op {
	switch g.kinds[c].draw() {
	case 0:
		return g.nextUpdate(c, doc, 0)
	case 1:
		return getOp(doc)
	default:
		return simplifyOp(doc)
	}
}

// mixedTemplates is the cacheable query pool of mixed_serving: five
// templates times 48 documents stay below the 256-entry cache.
var mixedTemplates = []server.QueryRequest{
	{Query: "A(S(K=s0, T $x))"},
	{Query: "A(S(C=c0, T $x))"},
	{Query: "A(//T $x)"},
	{Query: "/A/S[K='s1']/T", Syntax: "xpath"},
	{Query: "A(S(G(L $l)))"},
}

// mixedMaxLive bounds the inserted groups a mixed_serving document
// holds. Zipf popularity sends a third of a client's updates to one
// document; unbounded, that document's size, and with it every cost,
// would depend on the run length more than on the code under test.
const mixedMaxLive = 8

// nextMixedServing: Mix is query / search / update / view read / GET /
// simplify, SubMix deals the query templates. The occasional simplify
// drops the events that certain deletes leave unused.
func nextMixedServing(g *generator, c, doc int) op {
	switch g.kinds[c].draw() {
	case 0:
		return queryOp(doc, mixedTemplates[g.subKinds[c].draw()])
	case 1:
		req := server.SearchRequest{Keywords: []string{word(g.r.Intn(g.w.Shape.Vocab))}}
		if g.twoWords[c].draw() == 1 {
			req.Keywords = append(req.Keywords, word(g.r.Intn(g.w.Shape.Vocab)))
		}
		if g.elca[c].draw() == 1 {
			req.Mode = "elca"
		}
		if g.minProb[c].draw() == 1 {
			req.MinProb = 0.3
		}
		return op{Kind: kindSearch, Method: "POST", Path: "/docs/" + docName(doc) + "/search", Body: mustJSON(req), Doc: doc}
	case 2:
		return g.nextUpdate(c, doc, mixedMaxLive)
	case 3:
		v := g.w.Views[g.r.Intn(len(g.w.Views))]
		return op{Kind: kindViewRead, Method: "GET", Path: "/docs/" + docName(doc) + "/views/" + v.Name, Doc: doc}
	case 4:
		return getOp(doc)
	default:
		return simplifyOp(doc)
	}
}

// scaled returns the workload as run at the given scale: below 1 the
// document count shrinks too (never under four), so the smoke test's
// set-up is small.
func (w *workload) scaled(scale float64) *workload {
	if scale >= 1 {
		return w
	}
	c := *w
	c.Docs = max(4, int(float64(w.Docs)*scale))
	return &c
}

// opCounts sizes the phases of one run from the --seconds budget and
// the -scale factor: warm-up, closed and open op counts.
func (w *workload) opCounts(seconds, scale float64) (warm, closed, open int) {
	count := func(perSec, share float64, unit int) int {
		return max(unit, unit*int(math.Round(perSec*share*seconds*scale/float64(unit))))
	}
	// Closed and open counts divide into rounds chunks of whole client
	// turns.
	return count(w.ClosedPerSec, warmShare, clients),
		count(w.ClosedPerSec, closedShare, clients*rounds), count(w.Rate, openShare, clients*rounds)
}
