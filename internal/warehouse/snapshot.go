package warehouse

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/view"
	"repro/internal/xmlio"
)

// Snapshot is one immutable version of one document, together with
// everything derived from it. A mutation never edits a snapshot: it
// builds a successor with a larger Version and publishes it whole, so
// whatever was computed from a snapshot — its flat form, keyword index
// and registered views' states, held here — stays correct for that
// version forever and becomes garbage with it. This is the one place a
// version's derived state lives: queries and searches evaluate on the
// snapshot every time, and a view read returns the view's state on the
// snapshot it loads, so it answers for exactly that version.
//
// A Snapshot stays valid after its document is updated or dropped and
// after the warehouse is closed; all methods are safe for concurrent
// use and take no warehouse lock.
type Snapshot struct {
	tree    *fuzzy.Tree
	version uint64
	search  *searchCounters

	// doc is the flat form of tree that every query, view evaluation,
	// keyword index and the next update of this version runs on, built
	// by the first of them.
	docOnce sync.Once
	doc     *tpwj.Doc

	// index is the keyword index over doc, built by the first Search.
	indexOnce sync.Once
	index     *keyword.Index

	// views holds registered views' states on this version: carried
	// over by the mutation that built it, set by RegisterView, or
	// materialized by the first ReadView that misses; DropView deletes.
	viewsMu sync.Mutex
	views   map[*viewHandle]*view.View
}

// Snapshot returns the current version of the named document. The
// warehouse is pinned only for the fetch itself, so computing on the
// snapshot never blocks Close or Compact.
func (w *Warehouse) Snapshot(ctx context.Context, name string) (*Snapshot, error) {
	_, span := obs.StartSpan(ctx, "warehouse.snapshot")
	defer span.End()
	if err := validName(name); err != nil {
		return nil, err
	}
	release, err := w.startOp()
	if err != nil {
		return nil, err
	}
	defer release()
	return w.loadSnapshot(name)
}

// publish makes s, built unpublished as &Snapshot{tree: ...}, the
// current version of e's document. The caller holds e's mutex. Versions
// increase warehouse-wide, so a name that is dropped and created again,
// or reloaded by Reopen, never repeats one.
func (w *Warehouse) publish(e *docEntry, s *Snapshot) {
	s.version, s.search = w.version.Add(1), &w.search
	e.snap.Store(s)
}

// viewState returns the view's state on this version, if it has one.
func (s *Snapshot) viewState(h *viewHandle) (*view.View, bool) {
	s.viewsMu.Lock()
	defer s.viewsMu.Unlock()
	v, ok := s.views[h]
	return v, ok
}

// setViewState records the view's state on this version, unless one is
// there already, and returns the one that stays.
func (s *Snapshot) setViewState(h *viewHandle, v *view.View) *view.View {
	s.viewsMu.Lock()
	defer s.viewsMu.Unlock()
	if cur, ok := s.views[h]; ok {
		return cur
	}
	if s.views == nil {
		s.views = make(map[*viewHandle]*view.View)
	}
	s.views[h] = v
	return v
}

// dropViewState deletes the view's state from this version.
func (s *Snapshot) dropViewState(h *viewHandle) {
	s.viewsMu.Lock()
	defer s.viewsMu.Unlock()
	delete(s.views, h)
}

// flat returns the version's flat form, building it on first use: the
// tree is flattened once per version, however many readers ask. It is
// not validated again: every version's tree is valid when published —
// a page is validated as it is parsed (xmlio.ParseDoc), a created
// document by CreateCtx, and an update or a simplification of a valid
// tree is valid.
func (s *Snapshot) flat(ctx context.Context) *tpwj.Doc {
	s.docOnce.Do(func() {
		_, span := obs.StartSpan(ctx, "tpwj.flatten")
		defer span.End()
		s.doc = tpwj.FlattenFuzzy(s.tree)
	})
	return s.doc
}

// Version identifies the snapshot among all versions of all documents
// this warehouse has published: a later version of the same document
// has a larger number.
func (s *Snapshot) Version() uint64 { return s.version }

// Query evaluates a TPWJ query on the snapshot, returning answers with
// exact probabilities. When the context carries an obs trace, the
// pipeline stages (symbolic match, DNF compile, probability
// evaluation) record spans into it.
func (s *Snapshot) Query(ctx context.Context, q *tpwj.Query) ([]tpwj.ProbAnswer, error) {
	ctx, span := obs.StartSpan(ctx, "warehouse.query")
	defer span.End()
	d := s.flat(ctx)
	return d.Exact(ctx, q)
}

// QueryMC is Query with Monte-Carlo probability estimation, for
// documents whose condition structure makes exact computation too
// expensive.
func (s *Snapshot) QueryMC(ctx context.Context, q *tpwj.Query, samples int, r *rand.Rand) ([]tpwj.ProbAnswer, error) {
	ctx, span := obs.StartSpan(ctx, "warehouse.query")
	defer span.End()
	d := s.flat(ctx)
	return d.MonteCarlo(ctx, q, samples, r)
}

// Search runs a keyword search (SLCA or ELCA semantics, exact or
// Monte-Carlo probabilities, optional MinProb threshold and TopK cut)
// on the snapshot. The inverted index is built over the version's flat
// form by the first search of this version and shared by all later
// ones.
func (s *Snapshot) Search(ctx context.Context, req keyword.Request) (*keyword.Result, error) {
	s.search.searches.Add(1)
	d := s.flat(ctx)
	built := false
	s.indexOnce.Do(func() {
		_, span := obs.StartSpan(ctx, "keyword.index")
		s.index = keyword.IndexDoc(d)
		span.End()
		built = true
	})
	if !built {
		s.search.hits.Add(1)
	}
	_, span := obs.StartSpan(ctx, "keyword.search")
	defer span.End()
	return keyword.SearchContext(ctx, s.index, req)
}

// XML serializes the snapshot as pxml XML, in place: nothing is copied.
func (s *Snapshot) XML(ctx context.Context) ([]byte, error) {
	_, span := obs.StartSpan(ctx, "xml.encode")
	defer span.End()
	return xmlio.DocXML(s.tree)
}
