package server

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
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

// routeMetrics are one route's pre-registered handles. The latency
// histogram also tracks its largest observation (/stats max_ms), which
// bounds overflow-bucket quantile interpolation.
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

// StatsSnapshot is the GET /stats response body: the warehouse's
// degraded state, its storage footprint, and the merged registries
// GET /metrics exposes, rendered as JSON (obs.Values: a "metrics" map
// of counters and gauges and a "histograms" map of summaries, both
// keyed by exposition series such as
// px_http_requests_total{route="PUT /docs/{name}"}). Version and uptime
// are the px_build_info{version} and px_uptime_seconds series.
type StatsSnapshot struct {
	// Degraded reports whether the warehouse is in degraded read-only
	// mode (writes rejected after an unrecoverable storage error);
	// DegradedReason carries the failing operation and error. See
	// docs/FAULTS.md for the recovery runbook.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Storage reports the active storage backend ("filestore" or "kv")
	// and its on-disk footprint: document count, total bytes, and live
	// bytes (for the kv page store, the subset not reclaimable by
	// compaction; equal to total for the filestore). It is the one
	// section built by hand: a directory walk that can fail, too costly
	// to run on every /metrics scrape. See docs/STORAGE.md.
	Storage store.Stats `json:"storage"`
	obs.Values
}
