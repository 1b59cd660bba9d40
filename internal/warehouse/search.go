package warehouse

import (
	"context"

	"repro/internal/keyword"
	"repro/internal/obs"
)

// searchCounters counts keyword searches and how many of them found
// their snapshot's index already built (see Snapshot.Search).
type searchCounters struct {
	hits     *obs.Counter
	searches *obs.Counter
}

// initMetrics registers the counters on the warehouse's registry.
// Called once from Open, before the warehouse is shared.
func (s *searchCounters) initMetrics(reg *obs.Registry) {
	s.hits = reg.Counter("px_search_index_hits_total", "searches served by a cached up-to-date keyword index")
	s.searches = reg.Counter("px_searches_total", "keyword searches on this warehouse")
}

// Search runs a keyword search against the current version of the named
// document (see Snapshot.Search).
func (w *Warehouse) Search(name string, req keyword.Request) (*keyword.Result, error) {
	return w.SearchCtx(context.Background(), name, req)
}

// SearchCtx is Search with a context: the snapshot fetch, index build
// and search evaluation record spans when the context carries an obs
// trace.
func (w *Warehouse) SearchCtx(ctx context.Context, name string, req keyword.Request) (*keyword.Result, error) {
	s, err := w.Snapshot(ctx, name)
	if err != nil {
		return nil, err
	}
	return s.Search(ctx, req)
}
