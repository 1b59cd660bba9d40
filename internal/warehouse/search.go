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

// SearchStats reports the keyword-search counters of this warehouse
// together with the keyword engine's package counters (builds,
// postings, threshold prunes). Served by pxserve under /stats as
// "search".
type SearchStats struct {
	// Searches counts Search calls on this warehouse.
	Searches int64 `json:"searches"`
	// IndexHits counts searches served by an index an earlier search
	// of the same document version built.
	IndexHits int64 `json:"index_hits"`
	// IndexBuilds counts inverted-index builds (process-wide).
	IndexBuilds int64 `json:"index_builds"`
	// Postings counts inverted-index postings built (process-wide).
	Postings int64 `json:"postings"`
	// ThresholdPrunes counts candidates eliminated by the MinProb
	// upper bound before exact evaluation (process-wide).
	ThresholdPrunes int64 `json:"threshold_prunes"`
}

// SearchStats returns the warehouse's keyword-search counters.
func (w *Warehouse) SearchStats() SearchStats {
	kc := keyword.ReadCounters()
	return SearchStats{
		Searches:        w.search.searches.Value(),
		IndexHits:       w.search.hits.Value(),
		IndexBuilds:     kc.IndexBuilds,
		Postings:        kc.Postings,
		ThresholdPrunes: kc.ThresholdPrunes,
	}
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
