package warehouse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/view"
)

// View sentinel errors; test with errors.Is.
var (
	// ErrViewNotFound reports an operation on a missing view.
	ErrViewNotFound = errors.New("no such view")
	// ErrViewExists reports registering a view name already in use on
	// the document.
	ErrViewExists = errors.New("view already exists")
	// ErrInvalidView reports a view definition that does not compile
	// (bad query text or unknown syntax).
	ErrInvalidView = errors.New("invalid view definition")
)

// ViewResult is one materialized view read: the definition and the
// view's answer set on the version the read loaded. Stale is always
// false — a read never returns answers of any version but the one it
// loaded — and stays only because the benchmark harness still sets it
// on its wire form; it goes when that harness is re-anchored (ROADMAP
// item 1).
type ViewResult struct {
	Doc     string
	Name    string
	Query   string
	Syntax  string
	Answers []tpwj.ProbAnswer
	Stale   bool
}

// viewHandle is one registration of a view, held by its document's
// entry (see docEntry.views). The view's materialized states live on
// the snapshots of the versions they answer (see Snapshot), keyed by
// handle, so a view dropped and registered again under the same name
// never meets the earlier registration's states.
type viewHandle struct {
	def view.Definition
}

// viewRegistry accumulates the view maintenance counters.
type viewRegistry struct {
	skipped           *obs.Counter
	incremental       *obs.Counter
	full              *obs.Counter
	answersReused     *obs.Counter
	answersRecomputed *obs.Counter
}

// initMetrics registers the maintenance counters on the warehouse's
// registry. Called once from Open, before the warehouse is shared.
func (r *viewRegistry) initMetrics(reg *obs.Registry) {
	r.skipped = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "skip"))
	r.incremental = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "incremental"))
	r.full = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "recompute"))
	r.answersReused = reg.Counter("px_view_answers_total", "answer probabilities handled by incremental passes", obs.L("outcome", "reused"))
	r.answersRecomputed = reg.Counter("px_view_answers_total", "answer probabilities handled by incremental passes", obs.L("outcome", "recomputed"))
}

// record folds one maintenance result into the counters and the
// requesting mutation's cost accumulator (nil outside a request).
func (r *viewRegistry) record(cost *obs.Cost, res view.Result) {
	switch res.Outcome {
	case view.Skipped:
		obs.Charge(cost, obs.CostViewMaintSkipped, r.skipped, 1)
	case view.Incremental:
		obs.Charge(cost, obs.CostViewMaintIncremental, r.incremental, 1)
		obs.Charge(cost, obs.CostViewAnswersReused, r.answersReused, int64(res.Reused))
		obs.Charge(cost, obs.CostViewAnswersRecomputed, r.answersRecomputed, int64(res.Recomputed))
	case view.Full:
		obs.Charge(cost, obs.CostViewMaintRecomputed, r.full, 1)
	}
}

// findView returns the position of the view named name in hs, sorted by
// name, and whether it is there.
func findView(hs []*viewHandle, name string) (int, bool) {
	return slices.BinarySearchFunc(hs, name, func(h *viewHandle, name string) int {
		return strings.Compare(h.def.Name, name)
	})
}

// withView returns a copy of hs with h in place of any view of its name.
func withView(hs []*viewHandle, h *viewHandle) []*viewHandle {
	i, found := findView(hs, h.def.Name)
	out := slices.Clone(hs)
	if found {
		out[i] = h
		return out
	}
	return slices.Insert(out, i, h)
}

// withoutView returns hs, or a copy of it without the view named name.
func withoutView(hs []*viewHandle, name string) []*viewHandle {
	if i, found := findView(hs, name); found {
		return slices.Delete(slices.Clone(hs), i, i+1)
	}
	return hs
}

// viewList returns the document's views, sorted by name, so
// maintenance runs in deterministic order. The slice is never edited.
func (e *docEntry) viewList() []*viewHandle {
	if p := e.views.Load(); p != nil {
		return *p
	}
	return nil
}

// setViews replaces the document's views. The caller holds e's mutex,
// or holds e privately (Open).
func (e *docEntry) setViews(hs []*viewHandle) { e.views.Store(&hs) }

// view returns the document's view named name.
func (e *docEntry) view(name string) (*viewHandle, bool) {
	hs := e.viewList()
	if i, ok := findView(hs, name); ok {
		return hs[i], true
	}
	return nil, false
}

// viewCount returns the number of views on the documents in the table.
func (w *Warehouse) viewCount() int {
	w.docsMu.RLock()
	defer w.docsMu.RUnlock()
	n := 0
	for _, e := range w.docs {
		n += len(e.viewList())
	}
	return n
}

// RegisterView registers (and eagerly materializes) a named view of a
// TPWJ or XPath query over the document. The registration is journaled
// like a document mutation — one record, fsynced before the view
// becomes visible — so it survives crash recovery; the answer set is
// derived state and is re-materialized on demand after recovery. The
// initial answers are returned.
func (w *Warehouse) RegisterView(doc, name, query, syntax string) (*ViewResult, error) {
	return w.RegisterViewCtx(context.Background(), doc, name, query, syntax)
}

// RegisterViewCtx is RegisterView with a context: the materialization
// and journal install record spans when the context carries an obs
// trace.
func (w *Warehouse) RegisterViewCtx(ctx context.Context, doc, name, query, syntax string) (*ViewResult, error) {
	if err := validName(doc); err != nil {
		return nil, err
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	def := view.Definition{Name: name, Query: query, Syntax: syntax}
	q, err := def.Compile()
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w: %v", ErrInvalidView, err)
	}
	release, err := w.startMutation()
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := w.lockEntry(doc)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if _, ok := e.view(name); ok {
		return nil, fmt.Errorf("warehouse: %w: %q on %q", ErrViewExists, name, doc)
	}
	// The mutex keeps snap current until the install publishes the view
	// with its state on it.
	snap, err := w.loadLocked(doc, e)
	if err != nil {
		return nil, err
	}
	h := &viewHandle{def: def}
	v, err := w.materialize(ctx, snap, def, q)
	if err != nil {
		return nil, err
	}
	if err := w.install(ctx, Record{Op: OpViewRegister, Doc: doc, View: name, Query: query, Syntax: syntax}); err != nil {
		return nil, err
	}
	e.setViews(withView(e.viewList(), h))
	snap.setViewState(h, v)
	return &ViewResult{Doc: doc, Name: name, Query: query, Syntax: syntax, Answers: v.Answers()}, nil
}

// DropView removes a registered view, journaled like a registration.
func (w *Warehouse) DropView(doc, name string) error {
	if err := validName(doc); err != nil {
		return err
	}
	if err := validName(name); err != nil {
		return err
	}
	release, err := w.startMutation()
	if err != nil {
		return err
	}
	defer release()
	e, err := w.lockEntry(doc)
	if err != nil {
		return err
	}
	defer e.mu.Unlock()
	h, ok := e.view(name)
	if !ok {
		return fmt.Errorf("warehouse: %w: %q on %q", ErrViewNotFound, name, doc)
	}
	if err := w.install(context.Background(), Record{Op: OpViewDrop, Doc: doc, View: name}); err != nil {
		return err
	}
	e.setViews(withoutView(e.viewList(), name))
	if s := e.snap.Load(); s != nil {
		s.dropViewState(h)
	}
	return nil
}

// ListViews returns the document's view definitions, sorted by name.
func (w *Warehouse) ListViews(doc string) ([]view.Definition, error) {
	if err := validName(doc); err != nil {
		return nil, err
	}
	release, err := w.startOp()
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := w.entry(doc)
	if err != nil {
		return nil, err
	}
	handles := e.viewList()
	out := make([]view.Definition, len(handles))
	for i, h := range handles {
		out[i] = h.def
	}
	return out, nil
}

// ReadView returns the view's answers on the document's current
// version: its state on the snapshot the read loads, materialized there
// by the first read that finds none (after recovery, or after a
// maintenance pass that failed). A read never blocks on a writer — it
// answers for the version published before the writer's — and never
// returns answers of any other version.
func (w *Warehouse) ReadView(doc, name string) (*ViewResult, error) {
	return w.ReadViewCtx(context.Background(), doc, name)
}

// ReadViewCtx is ReadView with a context: serving a state the snapshot
// holds never consults it (pointer work only), but a materialization
// honors cancellation.
func (w *Warehouse) ReadViewCtx(ctx context.Context, doc, name string) (*ViewResult, error) {
	if err := validName(doc); err != nil {
		return nil, err
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	release, err := w.startOp()
	if err != nil {
		return nil, err
	}
	defer release()
	var h *viewHandle
	e, err := w.entry(doc)
	if err == nil {
		h, _ = e.view(name)
	}
	if h == nil {
		return nil, fmt.Errorf("warehouse: %w: %q on %q", ErrViewNotFound, name, doc)
	}
	s, err := w.loadEntry(doc, e)
	if err != nil {
		return nil, err
	}
	v, err := w.viewOn(ctx, s, h)
	if err != nil {
		return nil, err
	}
	return &ViewResult{Doc: doc, Name: name, Query: h.def.Query, Syntax: h.def.Syntax, Answers: v.Answers()}, nil
}

// viewOn returns the view's state on the snapshot, materializing it
// there if the snapshot holds none. Readers that miss together each
// evaluate, and the first to finish sets the state they all return. A
// read racing DropView may leave the dropped view a state on the
// snapshot; nothing reads it again, and it goes with the snapshot.
func (w *Warehouse) viewOn(ctx context.Context, s *Snapshot, h *viewHandle) (*view.View, error) {
	if v, ok := s.viewState(h); ok {
		return v, nil
	}
	q, err := h.def.Compile()
	if err != nil {
		return nil, fmt.Errorf("warehouse: view %q: %w", h.def.Name, err)
	}
	v, err := w.materialize(ctx, s, h.def, q)
	if err != nil {
		return nil, err
	}
	return s.setViewState(h, v), nil
}

// materialize evaluates the view, q compiled from def, from scratch on
// the snapshot and charges one recompute.
func (w *Warehouse) materialize(ctx context.Context, s *Snapshot, def view.Definition, q *tpwj.Query) (*view.View, error) {
	flat := s.flat(ctx)
	_, span := obs.StartSpan(ctx, "view.materialize")
	v, err := view.MaterializeCtx(ctx, def, q, flat)
	span.End()
	if err != nil {
		return nil, err
	}
	obs.Charge(obs.CostFromContext(ctx), obs.CostViewMaintRecomputed, w.views.full, 1)
	return v, nil
}

// maintainViews carries every view state pre holds into next, the
// document's unpublished successor, each by the cheapest tier the
// update's footprint delta allows (nil forces a recompute). mutateDoc
// calls it under the document's mutex, before the install, so the
// version is published with its views already answering for it. A
// view whose pass fails — on a cancelled context, say — gets no state
// on next, and the first ReadView of next materializes it.
func (w *Warehouse) maintainViews(ctx context.Context, e *docEntry, pre, next *Snapshot, delta *view.Delta) {
	cost := obs.CostFromContext(ctx)
	for _, h := range e.viewList() {
		old, ok := pre.viewState(h)
		if !ok {
			continue
		}
		nv, res, err := old.MaintainCtx(ctx, next.flat(ctx), delta)
		if err != nil {
			continue
		}
		w.views.record(cost, res)
		next.setViewState(h, nv)
	}
}

// --- persistence across Compact --------------------------------------------

// viewSnapshot is the views.json document.
type viewSnapshot struct {
	// Docs maps document name to its view definitions.
	Docs map[string][]view.Definition `json:"docs"`
}

// writeViewSnapshot persists the view definitions of every document
// in the table to the store's view snapshot (durably). Called by
// Compact under the exclusive warehouse lock, before the journal —
// until then the durable copy of registrations — is dropped.
func (w *Warehouse) writeViewSnapshot() error {
	defs := make(map[string][]view.Definition)
	for name, e := range w.docs {
		for _, h := range e.viewList() {
			defs[name] = append(defs[name], h.def)
		}
	}
	data, err := json.MarshalIndent(viewSnapshot{Docs: defs}, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: marshal view snapshot: %w", err)
	}
	if err := w.st.WriteViews(data); err != nil {
		return fmt.Errorf("warehouse: write view snapshot: %w", err)
	}
	return nil
}

// readViewSnapshot returns the view definitions of the store's view
// snapshot, by document, if there is one. Recovery folds the journal's
// view records into them (see histories).
func (w *Warehouse) readViewSnapshot() (map[string][]view.Definition, error) {
	data, ok, err := w.st.ReadViews()
	if err != nil {
		return nil, fmt.Errorf("warehouse: read view snapshot: %w", err)
	}
	if !ok {
		return nil, nil
	}
	var snap viewSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("warehouse: view snapshot corrupt: %w", err)
	}
	return snap.Docs, nil
}
