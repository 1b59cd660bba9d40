// Package server exposes a warehouse.Warehouse over an HTTP/JSON API:
// the multi-client front end of the paper's probabilistic XML warehouse
// architecture.
//
// Routes:
//
//	GET    /docs                  list document names
//	PUT    /docs/{name}           create a document from a <pxml> body
//	GET    /docs/{name}           fetch the document as <pxml> XML
//	DELETE /docs/{name}           drop the document
//	GET    /docs/{name}/stat      node/event/world counts
//	POST   /docs/{name}/query     evaluate a TPWJ or XPath query
//	POST   /docs/{name}/search    probabilistic keyword search (SLCA/ELCA)
//	POST   /docs/{name}/update    apply a probabilistic transaction
//	POST   /docs/{name}/simplify  run simplification passes
//	GET    /docs/{name}/views             list materialized views
//	PUT    /docs/{name}/views/{view}      register a materialized view
//	GET    /docs/{name}/views/{view}      read a view's maintained answers
//	DELETE /docs/{name}/views/{view}      drop a view
//	POST   /admin/compact         truncate the journal
//	POST   /admin/reopen          re-run recovery, clearing degraded mode
//	GET    /stats                 every metric series as JSON, plus storage and degraded state
//	GET    /metrics               Prometheus text exposition of the same series
//	GET    /debug/traces          ring buffer of recent request traces (opt-in, see Options.ExposeDebugTraces)
//	GET    /healthz               liveness probe
//	GET    /readyz                readiness probe (503 while degraded)
//
// Queries and searches are evaluated on every request, against the
// document's current warehouse.Snapshot; the server keeps no state of
// its own per document or version. A client that repeats a query should
// register it as a materialized view: the warehouse keeps its answers
// incrementally maintained as part of each update, and a view read
// returns the answers of the version it loads, never blocking on an
// in-flight update.
// Errors are reported as {"error": "..."} with conventional status
// codes (400 bad input, 404 missing document, 409 name conflict).
//
// Every request runs under an obs trace: the middleware opens a span
// tree, the pipeline below (warehouse snapshot fetch, symbolic match,
// DNF compile, probability evaluation, keyword search, journal writes,
// view maintenance) records timed spans into it, and the finished tree
// lands in the /debug/traces ring. Appending ?trace=1 to a query or
// search request echoes the tree in the response; requests slower than
// Options.SlowQueryThreshold are logged with their span breakdown. See
// docs/OBSERVABILITY.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
	"repro/internal/xpath"
)

// DefaultMaxBodyBytes bounds request bodies (documents, queries,
// updates) when Options.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 64 << 20

// MaxSamples bounds the Monte-Carlo sample count a single query
// request may demand, so one client cannot monopolize the server's CPU
// with an absurd samples value.
const MaxSamples = 1_000_000

// DefaultTraceRingSize is the number of recent request traces retained
// for GET /debug/traces when Options.TraceRingSize is zero.
const DefaultTraceRingSize = 64

// Options configures a Server.
type Options struct {
	// MaxBodyBytes bounds request bodies. Zero selects
	// DefaultMaxBodyBytes. Oversized requests get 413.
	MaxBodyBytes int64
	// Logf, when set, receives one line per request.
	Logf func(format string, args ...any)
	// SlowQueryThreshold, when positive, makes the server log every
	// request that takes at least this long, with its span breakdown.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-request records; nil selects
	// slog.Default().
	SlowQueryLog *slog.Logger
	// TraceRingSize is the number of recent request traces retained
	// for GET /debug/traces. Zero selects DefaultTraceRingSize; a
	// negative value disables the ring.
	TraceRingSize int
	// ExposeDebugTraces registers GET /debug/traces on the main mux.
	// Off by default: recent request paths and timings are operator
	// data, so like pprof they belong on a private debug listener —
	// mount TracesHandler there instead (pxserve serves it on the
	// -pprof address).
	ExposeDebugTraces bool
	// RequestTimeout, when positive, bounds each request's evaluation:
	// the request context is cancelled after this long, the evaluation
	// pipeline aborts at its next cancellation check, and the client
	// gets 503 with a typed timeout error (distinct from a client
	// disconnect, which is counted separately and never produces a
	// visible response). Observability routes (/stats, /metrics,
	// /healthz, /readyz, /debug/traces) are exempt.
	RequestTimeout time.Duration
	// MaxInFlight, when positive, caps the number of requests evaluating
	// concurrently; excess requests are shed immediately with 429
	// instead of queueing unboundedly. Observability routes are exempt,
	// so scrapes and probes keep answering while the workers are
	// saturated.
	MaxInFlight int
}

// Route patterns, exported so out-of-process clients key per-route
// metrics with the exact strings the server's /stats and /metrics
// report them under. pxsim's workload driver and end-of-run audit
// (internal/sim) depend on these matching the registered mux patterns;
// TestRouteConstantsRegistered pins that.
const (
	RouteList       = "GET /docs"
	RouteCreate     = "PUT /docs/{name}"
	RouteGet        = "GET /docs/{name}"
	RouteDrop       = "DELETE /docs/{name}"
	RouteStat       = "GET /docs/{name}/stat"
	RouteQuery      = "POST /docs/{name}/query"
	RouteSearch     = "POST /docs/{name}/search"
	RouteUpdate     = "POST /docs/{name}/update"
	RouteSimplify   = "POST /docs/{name}/simplify"
	RouteViewList   = "GET /docs/{name}/views"
	RouteViewPut    = "PUT /docs/{name}/views/{view}"
	RouteViewGet    = "GET /docs/{name}/views/{view}"
	RouteViewDelete = "DELETE /docs/{name}/views/{view}"
	RouteCompact    = "POST /admin/compact"
	RouteReopen     = "POST /admin/reopen"
	RouteStats      = "GET /stats"
	RouteMetrics    = "GET /metrics"
	RouteTraces     = "GET /debug/traces"
	RouteHealthz    = "GET /healthz"
	RouteReadyz     = "GET /readyz"
)

// exemptRoutes never get a request timeout or count against the
// in-flight cap: they are the routes an operator uses to observe an
// overloaded or degraded server, and they do cheap in-memory reads
// only — letting the workload starve them would blind exactly the
// tooling that diagnoses the overload.
var exemptRoutes = map[string]bool{
	RouteStats:   true,
	RouteMetrics: true,
	RouteHealthz: true,
	RouteReadyz:  true,
	RouteTraces:  true,
}

// Server is an http.Handler serving a warehouse. Create one with New.
type Server struct {
	wh      *warehouse.Warehouse
	stats   *stats
	reg     *obs.Registry
	traces  *obs.TraceRing
	mux     *http.ServeMux
	maxBody int64
	logf    func(format string, args ...any)

	slowThreshold time.Duration
	slowLog       *slog.Logger

	timeout  time.Duration
	inflight chan struct{} // nil: no cap; else buffered semaphore

	cancelTimeout    *obs.Counter
	cancelDisconnect *obs.Counter
	loadShed         *obs.Counter
	degradedRejects  *obs.Counter
}

// New builds a Server over an open warehouse. The caller remains
// responsible for closing the warehouse.
func New(wh *warehouse.Warehouse, opts Options) *Server {
	maxBody := opts.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	ringSize := opts.TraceRingSize
	if ringSize == 0 {
		ringSize = DefaultTraceRingSize
	}
	slowLog := opts.SlowQueryLog
	if slowLog == nil {
		slowLog = slog.Default()
	}
	reg := obs.NewRegistry()
	s := &Server{
		wh:      wh,
		stats:   newStats(reg),
		reg:     reg,
		mux:     http.NewServeMux(),
		maxBody: maxBody,
		logf:    opts.Logf,

		slowThreshold: opts.SlowQueryThreshold,
		slowLog:       slowLog,

		timeout: opts.RequestTimeout,
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	s.cancelTimeout = reg.Counter("px_cancellations_total",
		"request evaluations cancelled mid-flight, by reason", obs.L("reason", "timeout"))
	s.cancelDisconnect = reg.Counter("px_cancellations_total",
		"request evaluations cancelled mid-flight, by reason", obs.L("reason", "disconnect"))
	s.loadShed = reg.Counter("px_load_shed_total",
		"requests shed with 429 because the in-flight cap was reached")
	s.degradedRejects = reg.Counter("px_degraded_rejections_total",
		"writes rejected with 503 while the warehouse was degraded")
	if ringSize > 0 {
		s.traces = obs.NewTraceRing(ringSize)
	}
	obs.NewRuntimeCollector().Register(reg)
	reg.GaugeFunc("px_build_info",
		"always 1, labeled with the build version (see -ldflags in docs/OBSERVABILITY.md)",
		func() float64 { return 1 }, obs.L("version", Version))
	reg.GaugeFunc("px_uptime_seconds",
		"seconds since the server was constructed",
		func() float64 { return time.Since(s.stats.start).Seconds() })
	s.route(RouteList, s.handleList)
	s.route(RouteCreate, s.handleCreate)
	s.route(RouteGet, s.handleGet)
	s.route(RouteDrop, s.handleDrop)
	s.route(RouteStat, s.handleStat)
	s.route(RouteQuery, s.handleQuery)
	s.route(RouteSearch, s.handleSearch)
	s.route(RouteUpdate, s.handleUpdate)
	s.route(RouteSimplify, s.handleSimplify)
	s.route(RouteViewList, s.handleViewList)
	s.route(RouteViewPut, s.handleViewRegister)
	s.route(RouteViewGet, s.handleViewRead)
	s.route(RouteViewDelete, s.handleViewDrop)
	s.route(RouteCompact, s.handleCompact)
	s.route(RouteStats, s.handleStats)
	s.route(RouteMetrics, s.handleMetrics)
	s.route(RouteReopen, s.handleReopen)
	if opts.ExposeDebugTraces {
		s.route(RouteTraces, s.handleTraces)
	}
	s.route(RouteHealthz, s.handleHealthz)
	s.route(RouteReadyz, s.handleReadyz)
	return s
}

// TracesHandler serves the recent-traces ring (the GET /debug/traces
// payload) regardless of ExposeDebugTraces, for mounting on a private
// debug listener alongside pprof.
func (s *Server) TracesHandler() http.Handler {
	return http.HandlerFunc(s.handleTraces)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(w, r)
}

// route registers a handler wrapped with the observability middleware,
// labeled by the route pattern: each request runs under a fresh trace
// whose root span carries the pattern, finished stage spans feed the
// px_stage_seconds histograms, the completed tree lands in the
// /debug/traces ring, and requests over the slow-query threshold are
// logged with their span breakdown. Metric handles are resolved here,
// once, so the per-request recording is lock-free.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.stats.register(pattern)
	exempt := exemptRoutes[pattern]
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !exempt && s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				// Shed instead of queueing: a saturated server answering
				// 429 immediately is retryable; one queueing unboundedly
				// is not answering at all.
				s.loadShed.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					errors.New("server at capacity, retry later"))
				s.stats.record(pattern, http.StatusTooManyRequests, time.Since(start))
				return
			}
		}
		if !exempt && s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		trace, root := obs.NewTrace(pattern, s.stats.observeStage)
		cost := obs.NewCost()
		ctx := obs.ContextWithSpan(r.Context(), root)
		r = r.WithContext(obs.ContextWithCost(ctx, cost))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		root.End()
		d := time.Since(start)
		s.stats.record(pattern, rec.status, d)
		slow := s.slowThreshold > 0 && d >= s.slowThreshold
		if s.traces != nil || slow {
			spans := trace.Snapshot()
			costSnap := cost.Snapshot()
			if s.traces != nil {
				s.traces.Add(obs.TraceRecord{
					Time:     start,
					Route:    pattern,
					Path:     r.URL.Path,
					Status:   rec.status,
					DurMS:    float64(d) / float64(time.Millisecond),
					Spans:    spans,
					Cost:     &costSnap,
					SlowOver: slow,
				})
			}
			if slow {
				s.slowLog.LogAttrs(r.Context(), slog.LevelWarn, "slow query",
					slog.String("route", pattern),
					slog.String("path", r.URL.Path),
					slog.Int("status", rec.status),
					slog.Duration("duration", d),
					slog.Any("spans", spans),
					slog.Any("cost", costSnap),
				)
			}
		}
		if s.logf != nil {
			s.logf("%s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, d)
		}
	})
}

// statusRecorder captures the response status for the stats layer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) recorded when a client disconnects mid-evaluation. The
// response itself is never seen; the status exists to keep the metrics
// and logs honest about why the evaluation stopped.
const StatusClientClosedRequest = 499

// errStatus maps warehouse and parse failures to HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, warehouse.ErrNotFound), errors.Is(err, warehouse.ErrViewNotFound):
		return http.StatusNotFound
	case errors.Is(err, warehouse.ErrExists), errors.Is(err, warehouse.ErrViewExists):
		return http.StatusConflict
	case errors.Is(err, warehouse.ErrInvalidName), errors.Is(err, warehouse.ErrInvalidView):
		return http.StatusBadRequest
	case errors.Is(err, warehouse.ErrClosed), errors.Is(err, warehouse.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeErr reports an evaluation failure, distinguishing the
// fault-tolerance outcomes: a degraded warehouse answers 503 with
// Retry-After (the operator runbook in docs/FAULTS.md clears it), a
// request timeout answers 503 with a typed message and counts as a
// timeout cancellation, and a client disconnect is recorded as 499
// (the response goes nowhere). Everything else falls through to the
// conventional errStatus mapping.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, warehouse.ErrDegraded):
		s.degradedRejects.Inc()
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.cancelTimeout.Inc()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("request timed out after %v: %w", s.timeout, err))
	case errors.Is(err, context.Canceled):
		s.cancelDisconnect.Inc()
		writeError(w, StatusClientClosedRequest, err)
	default:
		writeError(w, errStatus(err), err)
	}
}

// bodyStatus distinguishes an oversized body (the MaxBytesReader
// tripped — 413, back off) from malformed input (400, fix the payload).
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// --- document CRUD ---------------------------------------------------------

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names, err := s.wh.List()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, ListResponse{Documents: names})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := warehouse.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("read body: %w", err))
		return
	}
	doc, err := xmlio.ParseDoc(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.wh.CreateCtx(r.Context(), name, doc); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, DocInfo{
		Name:   name,
		Nodes:  doc.Size(),
		Events: doc.Table.Len(),
		Worlds: doc.WorldCount(),
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	data, err := s.wh.GetXMLCtx(r.Context(), r.PathValue("name"))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(data) //nolint:errcheck
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.wh.Drop(name); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	info, err := s.wh.Stat(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, DocInfo{
		Name:   info.Name,
		Nodes:  info.Nodes,
		Events: info.Events,
		Worlds: info.Worlds,
	})
}

// --- querying --------------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := warehouse.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req QueryRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}

	var (
		q   *tpwj.Query
		err error
	)
	switch req.Syntax {
	case "", "tpwj":
		q, err = tpwj.ParseQuery(req.Query)
	case "xpath":
		q, err = xpath.Compile(req.Query)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown syntax %q (want tpwj or xpath)", req.Syntax))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	samples := req.Samples
	if samples <= 0 {
		samples = 1000
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var mc bool
	switch req.Mode {
	case "", "exact":
	case "mc":
		if samples > MaxSamples {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("samples %d exceeds the limit %d", samples, MaxSamples))
			return
		}
		mc = true
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want exact or mc)", req.Mode))
		return
	}

	snap, err := s.wh.Snapshot(r.Context(), name)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var raw []tpwj.ProbAnswer
	if mc {
		raw, err = snap.QueryMC(r.Context(), q, samples, rand.New(rand.NewSource(seed)))
	} else {
		raw, err = snap.Query(r.Context(), q)
	}
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	answers := encodeAnswers(raw)
	resp := QueryResponse{Answers: answers, Count: len(answers)}
	attachTrace(r, &resp.Trace)
	plan := &ExplainPlan{Mode: "exact", Reason: "exact Shannon expansion (request default)", Answers: answerPlans(raw)}
	if mc {
		plan.Mode, plan.Samples = "mc", samples
		plan.Reason = "Monte-Carlo estimation selected by the request's mode"
	}
	attachExplain(r, &resp.Explain, plan)
	writeJSON(w, http.StatusOK, resp)
}

// attachExplain fills *dst with the request's cost breakdown and the
// caller's plan summary when the client asked for it with ?explain=1.
// Like attachTrace, it runs just before the response is written so the
// breakdown covers the handler's work; the final charges (the response
// encoding is not instrumented) match what lands in the trace ring
// because both read the same accumulator.
func attachExplain(r *http.Request, dst **ExplainInfo, plan *ExplainPlan) {
	if r.URL.Query().Get("explain") != "1" {
		return
	}
	cost := obs.CostFromContext(r.Context())
	*dst = &ExplainInfo{Cost: cost.Snapshot(), Plan: plan}
}

// attachTrace fills *dst with the request's span tree when the client
// asked for it with ?trace=1. Called just before the response is
// written, so the tree covers all the work the handler did (the root
// span itself is still open and reports its duration so far).
func attachTrace(r *http.Request, dst **obs.SpanSnapshot) {
	if r.URL.Query().Get("trace") != "1" {
		return
	}
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		snap := sp.TraceSnapshot()
		*dst = &snap
	}
}

// handleSearch evaluates a probabilistic keyword search on the
// document's current snapshot, whose keyword index is built once per
// version and shared by every search of it.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := warehouse.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req SearchRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	mode, err := keyword.ParseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Checked here rather than left to the search, whose error would map
	// to 500: a keyword list without tokens is the client's mistake.
	if _, err := keyword.RequiredTokens(req.Keywords); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.MinProb < 0 || req.MinProb > 1 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("min_prob %v outside [0,1]", req.MinProb))
		return
	}
	if req.TopK < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("negative top_k %d", req.TopK))
		return
	}
	kreq := keyword.Request{
		Keywords: req.Keywords,
		Mode:     mode,
		MinProb:  req.MinProb,
		TopK:     req.TopK,
	}
	switch req.Prob {
	case "", "exact":
	case "mc":
		samples := req.Samples
		if samples <= 0 {
			samples = 1000
		}
		if samples > MaxSamples {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("samples %d exceeds the limit %d", samples, MaxSamples))
			return
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		kreq.MC, kreq.Samples, kreq.Seed = true, samples, seed
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown prob %q (want exact or mc)", req.Prob))
		return
	}

	snap, err := s.wh.Snapshot(r.Context(), name)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	res, err := snap.Search(r.Context(), kreq)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	resp := SearchResponse{
		Answers:    encodeSearchAnswers(res.Answers),
		Count:      len(res.Answers),
		Candidates: res.Candidates,
		Pruned:     res.Pruned,
	}
	attachTrace(r, &resp.Trace)
	plan := &ExplainPlan{
		Mode:       "exact",
		Reason:     "exact SLCA/ELCA formulas over witness conditions (request default)",
		Candidates: res.Candidates,
		Pruned:     res.Pruned,
	}
	if kreq.MC {
		plan.Mode, plan.Samples = "mc", kreq.Samples
		plan.Reason = "Monte-Carlo world sampling selected by the request's prob mode"
	}
	attachExplain(r, &resp.Explain, plan)
	writeJSON(w, http.StatusOK, resp)
}

// --- updating --------------------------------------------------------------

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := warehouse.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req UpdateRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	tx, err := req.toTransaction()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stats, err := s.wh.UpdateCtx(r.Context(), name, tx)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{
		Valuations:      stats.Valuations,
		Inserted:        stats.Inserted,
		DeletedOutright: stats.DeletedOutright,
		Copies:          stats.Copies,
		Event:           string(stats.Event),
	})
}

func (s *Server) handleSimplify(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	stats, err := s.wh.SimplifyCtx(r.Context(), name)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, SimplifyResponse{
		NodesRemoved:    stats.NodesRemoved,
		LiteralsRemoved: stats.LiteralsRemoved,
		SiblingsMerged:  stats.SiblingsMerged,
		EventsRemoved:   stats.EventsRemoved,
	})
}

// --- materialized views ----------------------------------------------------

// handleViewRegister registers (and eagerly materializes) a named view
// of a TPWJ or XPath query. The registration is journaled and survives
// recovery; the initial answers come back in the response.
func (s *Server) handleViewRegister(w http.ResponseWriter, r *http.Request) {
	doc, name := r.PathValue("name"), r.PathValue("view")
	if err := warehouse.ValidateName(doc); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := warehouse.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req ViewRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	res, err := s.wh.RegisterViewCtx(r.Context(), doc, name, req.Query, req.Syntax)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, encodeView(res))
}

// handleViewRead serves the view's maintained answers on the
// document's current version. It never waits for a writer: an update
// in flight has not published its version yet.
func (s *Server) handleViewRead(w http.ResponseWriter, r *http.Request) {
	res, err := s.wh.ReadViewCtx(r.Context(), r.PathValue("name"), r.PathValue("view"))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	resp := encodeView(res)
	attachTrace(r, &resp.Trace)
	attachExplain(r, &resp.Explain, &ExplainPlan{
		Mode:    "exact",
		Reason:  "materialized answers served from the maintained state",
		Answers: answerPlans(res.Answers),
	})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleViewDrop(w http.ResponseWriter, r *http.Request) {
	doc, name := r.PathValue("name"), r.PathValue("view")
	if err := s.wh.DropView(doc, name); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

func (s *Server) handleViewList(w http.ResponseWriter, r *http.Request) {
	defs, err := s.wh.ListViews(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	resp := ViewListResponse{Views: make([]ViewInfo, len(defs))}
	for i, d := range defs {
		resp.Views[i] = ViewInfo{Name: d.Name, Query: d.Query, Syntax: d.Syntax}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- admin -----------------------------------------------------------------

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.wh.Compact(); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"compacted": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// registries are the metric registries /stats and /metrics render: the
// server's (routes, stages, admission, runtime), the warehouse's
// (journal, recovery, search, views) and the process-global one
// (probability and keyword engines).
func (s *Server) registries() []*obs.Registry {
	return []*obs.Registry{s.reg, s.wh.Registry(), obs.Default()}
}

// Snapshot returns the GET /stats payload. pxserve logs it as the final
// summary on graceful shutdown.
func (s *Server) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{Values: obs.Snapshot(s.registries()...)}
	snap.Degraded, snap.DegradedReason = s.wh.Degraded()
	if st, err := s.wh.StorageStats(); err == nil {
		snap.Storage = st
	}
	return snap
}

// handleMetrics serves the Prometheus text exposition of the same
// registries.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteText(w, s.registries()...) //nolint:errcheck
}

// handleTraces serves the retained request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	list := []obs.TraceRecord{}
	if s.traces != nil {
		list = s.traces.List()
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: list, Count: len(list)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while the warehouse accepts
// writes, 503 with the degradation cause while it is read-only (see
// docs/FAULTS.md). Liveness (/healthz) stays green in either state —
// a degraded server is alive and serving reads; restarting it without
// recovery would not help.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if degraded, reason := s.wh.Degraded(); degraded {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "degraded", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReopen re-runs recovery on the warehouse directory and clears
// degraded mode on success — the in-process equivalent of restarting
// the server after `pxwarehouse recover`. Waits for in-flight
// operations like Compact does.
func (s *Server) handleReopen(w http.ResponseWriter, r *http.Request) {
	if err := s.wh.Reopen(); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"reopened": true})
}
