package warehouse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

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
// current answer set. Stale reports that a maintenance pass was in
// flight (or the state trailed the document) when the answers were
// copied out: the answers are the complete, consistent result of the
// view's query against the document as of the last completed
// maintenance pass, not of the mutation currently being applied. See
// docs/ARCHITECTURE.md for the consistency model.
type ViewResult struct {
	Doc     string
	Name    string
	Query   string
	Syntax  string
	Answers []tpwj.ProbAnswer
	Stale   bool
}

// viewHandle is the registry's mutable slot for one view. def is
// immutable after registration; v (the materialized state, an
// immutable view.View), version (of the Snapshot v was computed
// against) and maintaining are guarded by mu. Holders of mu do only
// pointer work — evaluation always runs outside it — so ReadView never
// blocks on a maintenance pass.
type viewHandle struct {
	def view.Definition

	mu          sync.Mutex
	q           *tpwj.Query // compiled lazily for recovered definitions
	v           *view.View
	version     uint64
	maintaining bool
}

// compiled returns the handle's compiled query, compiling the
// definition on first use (registrations compile eagerly; definitions
// replayed from the journal or the compaction snapshot do it here).
// The caller must hold h.mu.
func (h *viewHandle) compiled() (*tpwj.Query, error) {
	if h.q == nil {
		q, err := h.def.Compile()
		if err != nil {
			return nil, fmt.Errorf("warehouse: view %q: %w", h.def.Name, err)
		}
		h.q = q
	}
	return h.q, nil
}

// viewRegistry maps document → view name → handle, and accumulates the
// maintenance counters. The registry mutex guards only the maps;
// per-view state is guarded by each handle's own mutex.
type viewRegistry struct {
	mu    sync.Mutex
	byDoc map[string]map[string]*viewHandle

	skipped           *obs.Counter
	incremental       *obs.Counter
	full              *obs.Counter
	answersReused     *obs.Counter
	answersRecomputed *obs.Counter
	staleReads        *obs.Counter
}

// initMetrics registers the maintenance counters on the warehouse's
// registry. Called once from Open, before the warehouse is shared.
func (r *viewRegistry) initMetrics(reg *obs.Registry) {
	r.skipped = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "skip"))
	r.incremental = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "incremental"))
	r.full = reg.Counter("px_view_maintenance_total", "view maintenance passes by tier", obs.L("tier", "recompute"))
	r.answersReused = reg.Counter("px_view_answers_total", "answer probabilities handled by incremental passes", obs.L("outcome", "reused"))
	r.answersRecomputed = reg.Counter("px_view_answers_total", "answer probabilities handled by incremental passes", obs.L("outcome", "recomputed"))
	r.staleReads = reg.Counter("px_view_stale_reads_total", "ReadView calls served a previous state during maintenance")
}

func (r *viewRegistry) get(doc, name string) (*viewHandle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.byDoc[doc][name]
	return h, ok
}

// set installs a handle for the definition, replacing any previous one.
func (r *viewRegistry) set(doc string, h *viewHandle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byDoc == nil {
		r.byDoc = make(map[string]map[string]*viewHandle)
	}
	m := r.byDoc[doc]
	if m == nil {
		m = make(map[string]*viewHandle)
		r.byDoc[doc] = m
	}
	m[h.def.Name] = h
}

func (r *viewRegistry) del(doc, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byDoc[doc]; m != nil {
		delete(m, name)
		if len(m) == 0 {
			delete(r.byDoc, doc)
		}
	}
}

func (r *viewRegistry) delDoc(doc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byDoc, doc)
}

// forDoc returns the document's handles, sorted by view name so
// maintenance runs in deterministic order.
func (r *viewRegistry) forDoc(doc string) []*viewHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byDoc[doc]
	out := make([]*viewHandle, 0, len(m))
	for _, h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].def.Name < out[j].def.Name })
	return out
}

// defs returns all definitions, keyed by document, for the compaction
// snapshot.
func (r *viewRegistry) defs() map[string][]view.Definition {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]view.Definition, len(r.byDoc))
	for doc, m := range r.byDoc {
		for _, h := range m {
			out[doc] = append(out[doc], h.def)
		}
		sort.Slice(out[doc], func(i, j int) bool { return out[doc][i].Name < out[doc][j].Name })
	}
	return out
}

// count returns the number of registered views.
func (r *viewRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.byDoc {
		n += len(m)
	}
	return n
}

// reset drops every handle but keeps the counter handles (they are
// registered once on the warehouse's registry and must stay monotonic
// across Reopen).
func (r *viewRegistry) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byDoc = nil
}

// pruneMissing drops every document's views unless exists(doc).
func (r *viewRegistry) pruneMissing(exists func(doc string) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for doc := range r.byDoc {
		if !exists(doc) {
			delete(r.byDoc, doc)
		}
	}
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
	dl, err := w.lockWriter(doc, true)
	if err != nil {
		return nil, err
	}
	defer dl.writers.Unlock()
	if _, ok := w.views.get(doc, name); ok {
		return nil, fmt.Errorf("warehouse: %w: %q on %q", ErrViewExists, name, doc)
	}
	snap, err := w.loadSnapshot(doc)
	if err != nil {
		w.releaseIfGone(doc, err)
		return nil, err
	}
	// Materialize outside the state lock: the writers lock already
	// serializes this against mutations of the document, and readers
	// must not wait on query evaluation.
	flat, err := snap.flat(ctx)
	if err != nil {
		return nil, err
	}
	_, mspan := obs.StartSpan(ctx, "view.materialize")
	v, err := view.MaterializeCtx(ctx, def, q, flat)
	mspan.End()
	if err != nil {
		return nil, err
	}
	h := &viewHandle{def: def, q: q, v: v, version: snap.version}
	err = w.install(ctx, dl,
		Record{Op: OpViewRegister, Doc: doc, View: name, Query: query, Syntax: syntax},
		func() error {
			w.views.set(doc, h)
			return nil
		})
	if err != nil {
		return nil, err
	}
	obs.Charge(obs.CostFromContext(ctx), obs.CostViewMaintRecomputed, w.views.full, 1)
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
	dl, err := w.lockWriter(doc, true)
	if err != nil {
		return err
	}
	defer dl.writers.Unlock()
	if _, ok := w.views.get(doc, name); !ok {
		return fmt.Errorf("warehouse: %w: %q on %q", ErrViewNotFound, name, doc)
	}
	return w.install(context.Background(), dl,
		Record{Op: OpViewDrop, Doc: doc, View: name},
		func() error {
			w.views.del(doc, name)
			return nil
		})
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
	if err := w.statGuard(doc); err != nil {
		return nil, err
	}
	handles := w.views.forDoc(doc)
	out := make([]view.Definition, len(handles))
	for i, h := range handles {
		out[i] = h.def
	}
	return out, nil
}

// ReadView returns the view's materialized answers. It never blocks on
// a writer: while a mutation's maintenance pass is in flight (or
// imminent — the window between a mutation's install and the pass
// reaching this view), the previous answer set is returned with Stale
// set — a complete, consistent result against the pre-mutation
// document. A view with no materialized state at all (first read after
// recovery) is materialized here, against the current snapshot.
func (w *Warehouse) ReadView(doc, name string) (*ViewResult, error) {
	return w.ReadViewCtx(context.Background(), doc, name)
}

// ReadViewCtx is ReadView with a context: serving a materialized state
// never consults it (pointer work only), but the lazy materialization
// of a never-materialized view honors cancellation.
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
	h, ok := w.views.get(doc, name)
	if !ok {
		return nil, fmt.Errorf("warehouse: %w: %q on %q", ErrViewNotFound, name, doc)
	}
	res := &ViewResult{Doc: doc, Name: name, Query: h.def.Query, Syntax: h.def.Syntax}
	for {
		cur, err := w.loadSnapshot(doc)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		if h.v != nil {
			// A state trailing the snapshot with no maintaining flag
			// set is the window between a mutation's install and its
			// maintenance pass reaching this handle (maintenance always
			// runs before the mutation returns): serve it stale like an
			// in-flight pass, rather than paying a full materialization
			// the imminent pass would duplicate.
			res.Answers = h.v.Answers()
			res.Stale = h.maintaining || h.version != cur.version
			h.mu.Unlock()
			if res.Stale {
				w.views.staleReads.Add(1)
			}
			return res, nil
		}
		// Never materialized (first read after recovery, or a failed
		// maintenance pass): evaluate against the current snapshot,
		// outside the handle mutex.
		q, err := h.compiled()
		h.mu.Unlock()
		if err != nil {
			return nil, err
		}
		flat, err := cur.flat(ctx)
		if err != nil {
			return nil, err
		}
		v, err := view.MaterializeCtx(ctx, h.def, q, flat)
		if err != nil {
			return nil, err
		}
		obs.Charge(obs.CostFromContext(ctx), obs.CostViewMaintRecomputed, w.views.full, 1)
		h.mu.Lock()
		if h.v == nil && !h.maintaining {
			h.v, h.version = v, cur.version
			h.mu.Unlock()
			res.Answers = v.Answers()
			return res, nil
		}
		if h.maintaining && h.v == nil {
			// A maintenance pass is re-materializing concurrently; our
			// result is a complete answer set against the pre-pass
			// snapshot — exactly what a stale read promises.
			h.mu.Unlock()
			w.views.staleReads.Add(1)
			res.Answers = v.Answers()
			res.Stale = true
			return res, nil
		}
		// A maintenance pass installed a state while we evaluated; it
		// is at least as fresh as ours. Retry: the next iteration
		// serves it with its staleness judged against a fresh snapshot.
		h.mu.Unlock()
	}
}

// maintainViews brings every view of the document from the pre-update
// snapshot to the post-update snapshot. Called by mutateDoc after the
// install, still under the document's writers lock (so passes of
// successive updates never interleave) but outside every handle mutex
// (so concurrent ReadView calls serve the previous state marked stale
// instead of blocking). delta is the update's structural footprint;
// nil forces affected views to recompute from scratch. A cancelled
// context aborts the remaining passes: the document mutation is already
// durable at this point, so the affected views are simply left
// unmaterialized and the next ReadView rebuilds them lazily.
func (w *Warehouse) maintainViews(ctx context.Context, doc string, pre, next *Snapshot, delta *view.Delta) {
	cost := obs.CostFromContext(ctx)
	for _, h := range w.views.forDoc(doc) {
		h.mu.Lock()
		old, oldVersion := h.v, h.version
		q, err := h.compiled()
		h.maintaining = true
		h.mu.Unlock()

		var nv *view.View
		var flat *tpwj.Doc
		if err == nil {
			flat, err = next.flat(ctx)
		}
		if err == nil {
			if old != nil && oldVersion == pre.version {
				var res view.Result
				nv, res, err = old.MaintainCtx(ctx, flat, delta)
				if err == nil {
					w.views.record(cost, res)
				}
			} else {
				// The state does not correspond to the pre-update
				// snapshot (first use after recovery): start over.
				nv, err = view.MaterializeCtx(ctx, h.def, q, flat)
				if err == nil {
					obs.Charge(cost, obs.CostViewMaintRecomputed, w.views.full, 1)
				}
			}
		}

		h.mu.Lock()
		if err == nil {
			h.v, h.version = nv, next.version
		} else {
			// Leave the view unmaterialized; the next ReadView retries
			// against the then-current snapshot.
			h.v, h.version = nil, 0
		}
		h.maintaining = false
		h.mu.Unlock()
	}
}

// --- persistence across Compact --------------------------------------------

// viewSnapshot is the views.json document.
type viewSnapshot struct {
	// Docs maps document name to its view definitions.
	Docs map[string][]view.Definition `json:"docs"`
}

// writeViewSnapshot persists all current view definitions to the
// store's view snapshot (durably). Called by Compact under the
// exclusive warehouse lock, before the journal — until then the
// durable copy of registrations — is dropped.
func (w *Warehouse) writeViewSnapshot() error {
	data, err := json.MarshalIndent(viewSnapshot{Docs: w.views.defs()}, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: marshal view snapshot: %w", err)
	}
	if err := w.st.WriteViews(data); err != nil {
		return fmt.Errorf("warehouse: write view snapshot: %w", err)
	}
	return nil
}

// loadViewSnapshot seeds the registry from the store's view snapshot,
// if present. Called by Open before journal recovery, whose view
// records (and document drops) are replayed on top in journal order.
func (w *Warehouse) loadViewSnapshot() error {
	data, ok, err := w.st.ReadViews()
	if err != nil {
		return fmt.Errorf("warehouse: read view snapshot: %w", err)
	}
	if !ok {
		return nil
	}
	var snap viewSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("warehouse: view snapshot corrupt: %w", err)
	}
	for doc, defs := range snap.Docs {
		for _, def := range defs {
			w.views.set(doc, &viewHandle{def: def})
		}
	}
	return nil
}
