package server

import (
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/warehouse"
)

// Version identifies the build serving /stats and /metrics. "dev" by
// default; release builds override it with
//
//	go build -ldflags "-X repro/internal/server.Version=$(git rev-parse --short HEAD)"
var Version = "dev"

// stats records per-request metrics into the server's obs registry.
//
// The recording hot path is mutex-free: every route's handles (request
// counter, error counter, latency histogram) are created up front when
// the route is registered, so record is a handful of atomic operations
// on pre-resolved pointers. This replaces the
// previous design, where every request took one global sync.Mutex to
// bump counters in a map — under concurrent load all requests
// serialized on that lock at the exact moment they were trying to
// finish.
type stats struct {
	reg   *obs.Registry
	start time.Time

	// routes is written only during construction (stats.register runs
	// from Server.route before the mux serves anything) and read-only
	// afterwards, so record reads it without a lock.
	routes map[string]*routeMetrics

	// stages maps span names to their px_stage_seconds histogram,
	// populated lazily by the trace onEnd hook (stage names are only
	// known when a span first finishes). sync.Map fits the workload:
	// each key is written once and read forever after.
	stages sync.Map // string -> *obs.Histogram
}

// routeMetrics are one route's pre-registered handles. The maximum
// latency /stats reports comes from the histogram, which tracks its
// largest observation (and uses it to bound overflow-bucket quantile
// interpolation).
type routeMetrics struct {
	count  *obs.Counter
	errors *obs.Counter
	lat    *obs.Histogram
}

func newStats(reg *obs.Registry) *stats {
	return &stats{
		reg:    reg,
		start:  time.Now(),
		routes: make(map[string]*routeMetrics),
	}
}

// register creates the metric handles for a route. Called once per
// route from Server.route, before the server is shared.
func (s *stats) register(route string) {
	s.routes[route] = &routeMetrics{
		count: s.reg.Counter("px_http_requests_total",
			"HTTP requests by route", obs.L("route", route)),
		errors: s.reg.Counter("px_http_request_errors_total",
			"HTTP responses with status >= 400 by route", obs.L("route", route)),
		lat: s.reg.Histogram("px_http_request_seconds",
			"HTTP request latency by route", obs.L("route", route)),
	}
}

// record is the per-request hot path: lock-free, allocation-free.
func (s *stats) record(route string, status int, d time.Duration) {
	rm := s.routes[route]
	if rm == nil {
		return
	}
	rm.count.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	rm.lat.Observe(d)
}

// observeStage feeds one finished span into the per-stage histogram
// family — the Trace onEnd hook. Registry handles are stable per
// (name, labels), so a racing first observation of a stage costs one
// redundant lookup, never a duplicate series.
func (s *stats) observeStage(name string, d time.Duration) {
	h, ok := s.stages.Load(name)
	if !ok {
		h, _ = s.stages.LoadOrStore(name, s.reg.Histogram("px_stage_seconds",
			"pipeline stage latency by span name", obs.L("stage", name)))
	}
	h.(*obs.Histogram).Observe(d)
}

// RouteSnapshot reports the request counters of one route, with
// latency quantiles derived from its histogram.
type RouteSnapshot struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	AvgMS  float64 `json:"avg_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// StatsSnapshot is the GET /stats response body. Engine reports the
// probability-engine counters (DNF compiles, bitset fast-path share,
// Shannon memo hits/misses, component decompositions) accumulated over
// the whole process; Journal reports the warehouse's journal counters
// (durable appends — one per mutation — group-commit fsync batches, and
// the documents the last Open replayed); Search reports the keyword
// search subsystem (index builds and reuses, searches, postings,
// threshold prunes). Every number is read from the same obs registries
// that GET /metrics exposes.
type StatsSnapshot struct {
	// Version is the build identifier (see Version).
	Version string `json:"version"`
	// Degraded reports whether the warehouse is in degraded read-only
	// mode (writes rejected after an unrecoverable storage error);
	// DegradedReason carries the failing operation and error. See
	// docs/FAULTS.md for the recovery runbook.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Requests      map[string]RouteSnapshot `json:"requests"`
	// Stages reports per-stage latency distributions (span names like
	// "warehouse.query" or "event.prob"), fed by request traces.
	Stages  map[string]obs.HistogramSnapshot `json:"stages,omitempty"`
	Engine  event.EngineCounters             `json:"engine"`
	Journal warehouse.JournalStats           `json:"journal"`
	Search  warehouse.SearchStats            `json:"search"`
	// Views reports the materialized-view subsystem: registered views
	// and the maintenance-tier counters (skipped / incremental / full
	// recomputes, reused vs recomputed answer probabilities, stale
	// reads served during in-flight maintenance).
	Views warehouse.ViewStats `json:"views"`
	// Storage reports the active storage backend ("filestore" or "kv")
	// and its on-disk footprint: document count, total bytes, and live
	// bytes (for the kv page store, the subset not reclaimable by
	// compaction; equal to total for the filestore). See
	// docs/STORAGE.md.
	Storage store.Stats `json:"storage"`
	// Runtime reports Go runtime health (goroutines, heap, GC pauses,
	// scheduler latency), read from runtime/metrics. Filled by the
	// Server, which owns the collector.
	Runtime obs.RuntimeStats `json:"runtime"`
}

func (s *stats) snapshot(journal warehouse.JournalStats, search warehouse.SearchStats, views warehouse.ViewStats) StatsSnapshot {
	out := StatsSnapshot{
		Version:       Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      make(map[string]RouteSnapshot, len(s.routes)),
		Engine:        event.ReadEngineCounters(),
		Journal:       journal,
		Search:        search,
		Views:         views,
	}
	for route, rm := range s.routes {
		count := rm.count.Value()
		if count == 0 {
			continue // keep /stats to routes that have actually served
		}
		hs := rm.lat.Snapshot()
		out.Requests[route] = RouteSnapshot{
			Count:  count,
			Errors: rm.errors.Value(),
			AvgMS:  hs.AvgMS,
			MaxMS:  hs.MaxMS,
			P50MS:  hs.P50MS,
			P95MS:  hs.P95MS,
			P99MS:  hs.P99MS,
		}
	}
	s.stages.Range(func(k, v any) bool {
		if out.Stages == nil {
			out.Stages = make(map[string]obs.HistogramSnapshot)
		}
		out.Stages[k.(string)] = v.(*obs.Histogram).Snapshot()
		return true
	})
	return out
}
