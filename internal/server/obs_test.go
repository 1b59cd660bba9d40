package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/warehouse"
)

// createSampleDoc uploads the running example document as "ex".
func createSampleDoc(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if status, body := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != http.StatusCreated {
		t.Fatalf("PUT /docs/ex = %d: %s", status, body)
	}
}

// expoSample is one parsed sample line of the exposition text.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

var expoSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

// parseExposition parses Prometheus text format 0.0.4, failing the
// test on any malformed line, and returns the samples plus the
// declared TYPE per family.
func parseExposition(t *testing.T, text string) ([]expoSample, map[string]string) {
	t.Helper()
	var samples []expoSample
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("unexpected comment line %q", line)
			}
			continue
		}
		m := expoSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		s := expoSample{name: m[1], labels: make(map[string]string), value: v}
		if m[2] != "" {
			for _, pair := range splitLabelPairs(t, m[2]) {
				eq := strings.Index(pair, "=")
				if eq < 0 {
					t.Fatalf("sample %q: bad label %q", line, pair)
				}
				val, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					t.Fatalf("sample %q: label value %q not a quoted string: %v", line, pair, err)
				}
				s.labels[pair[:eq]] = val
			}
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func findSample(samples []expoSample, name string, labels map[string]string) *expoSample {
	for i := range samples {
		if samples[i].name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if samples[i].labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return &samples[i]
		}
	}
	return nil
}

// TestMetricsExposition scrapes /metrics after real traffic and checks
// that the text parses, that every family is typed, that histograms
// are internally consistent, and that the route counters agree with
// what /stats reports — both must read the same registry.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)
	if status, resp := query(t, ts, "ex", QueryRequest{Query: "A(B $x)"}); status != 200 || resp.Count == 0 {
		t.Fatalf("query = %d, %+v", status, resp)
	}
	var sresp SearchResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/search",
		SearchRequest{Keywords: []string{"x"}}, &sresp); status != 200 {
		t.Fatalf("search = %d", status)
	}

	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	samples, types := parseExposition(t, string(body))
	if len(samples) == 0 {
		t.Fatal("no samples in /metrics output")
	}

	// Every sample's family is declared with a TYPE (histogram series
	// reduce to their base family name).
	for _, s := range samples {
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if bn := strings.TrimSuffix(base, suffix); bn != base && types[bn] == "histogram" {
				base = bn
				break
			}
		}
		if types[base] == "" {
			t.Errorf("sample %s has no TYPE declaration", s.name)
		}
	}

	// The pipeline counters of every layer are present.
	for _, name := range []string{
		"px_http_requests_total",
		"px_http_request_seconds_count",
		"px_stage_seconds_count",
		"px_tpwj_nodes_visited_total",
		"px_engine_compiles_total",
		"px_journal_appends_total",
		"px_searches_total",
		"px_build_info",
		"px_uptime_seconds",
	} {
		if findSample(samples, name, nil) == nil {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	for _, stage := range []string{"warehouse.query", "tpwj.match", "event.compile", "event.prob", "keyword.search"} {
		if findSample(samples, "px_stage_seconds_count", map[string]string{"stage": stage}) == nil {
			t.Errorf("/metrics has no px_stage_seconds series for stage %q", stage)
		}
	}

	// Histogram consistency: cumulative buckets are non-decreasing and
	// the +Inf bucket equals the series count.
	counts := make(map[string]float64)
	for _, s := range samples {
		if strings.HasSuffix(s.name, "_count") {
			counts[strings.TrimSuffix(s.name, "_count")+labelSig(s.labels)] = s.value
		}
	}
	last := make(map[string]float64)
	for _, s := range samples {
		if !strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		base := strings.TrimSuffix(s.name, "_bucket")
		sig := base + labelSigExcept(s.labels, "le")
		if s.value < last[sig] {
			t.Errorf("histogram %s: bucket le=%s decreases (%g < %g)", sig, s.labels["le"], s.value, last[sig])
		}
		last[sig] = s.value
		if s.labels["le"] == "+Inf" && s.value != counts[sig] {
			t.Errorf("histogram %s: +Inf bucket %g != count %g", sig, s.value, counts[sig])
		}
	}

	// /metrics and /stats read the same registry: the query route's
	// request counter must match exactly.
	snap := serverStats(t, ts)
	route := "POST /docs/{name}/query"
	s := findSample(samples, "px_http_requests_total", map[string]string{"route": route})
	if s == nil {
		t.Fatalf("no px_http_requests_total sample for route %q", route)
	}
	// The /stats scrape itself may have raced ahead of the /metrics
	// one, but the query route was quiet in between.
	if got := snap.Metrics[routeSeries("px_http_requests_total", route)]; got != s.value {
		t.Errorf("route %q: /metrics says %g requests, /stats says %g", route, s.value, got)
	}
}

func labelSig(labels map[string]string) string { return labelSigExcept(labels, "") }

func labelSigExcept(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	// Deterministic order without importing sort for two keys.
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, labels[k])
	}
	return b.String()
}

// TestQueryTraceEcho pins the ?trace=1 span tree: the response must
// carry the full request trace with the pipeline stages nested under
// the route root in the documented order.
func TestQueryTraceEcho(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)

	var resp QueryResponse
	status := doJSON(t, "POST", ts.URL+"/docs/ex/query?trace=1",
		QueryRequest{Query: "A(B $x)"}, &resp)
	if status != 200 {
		t.Fatalf("query = %d", status)
	}
	if resp.Trace == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	root := resp.Trace
	if root.Name != "POST /docs/{name}/query" {
		t.Fatalf("trace root = %q, want the route pattern", root.Name)
	}
	wq := root.Find("warehouse.query")
	if wq == nil {
		t.Fatalf("trace has no warehouse.query span: %+v", root)
	}
	// The evaluation stages are children of the warehouse.query span —
	// presence anywhere is not enough, the nesting must hold. The
	// snapshot fetch precedes it as a sibling: the handler fetches the
	// version, then evaluates on it.
	for _, stage := range []string{"tpwj.match", "event.compile", "event.prob"} {
		if wq.Find(stage) == nil {
			t.Errorf("warehouse.query span has no nested %q span", stage)
		}
	}
	if root.Find("warehouse.snapshot") == nil || wq.Find("warehouse.snapshot") != nil {
		t.Errorf("warehouse.snapshot span missing, or nested under warehouse.query: %+v", root)
	}
	if root.DurUS < wq.DurUS {
		t.Errorf("root span (%v µs) shorter than its child warehouse.query (%v µs)", root.DurUS, wq.DurUS)
	}

	// Without ?trace=1 the response must not carry a trace.
	if _, resp := query(t, ts, "ex", QueryRequest{Query: "A(B $x)"}); resp.Trace != nil {
		t.Error("response without ?trace=1 carries a trace")
	}
}

// TestSearchTraceEcho checks the search pipeline's spans.
func TestSearchTraceEcho(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)

	var resp SearchResponse
	status := doJSON(t, "POST", ts.URL+"/docs/ex/search?trace=1",
		SearchRequest{Keywords: []string{"x"}}, &resp)
	if status != 200 {
		t.Fatalf("search = %d", status)
	}
	if resp.Trace == nil {
		t.Fatal("?trace=1 search response has no trace")
	}
	for _, stage := range []string{"warehouse.snapshot", "keyword.index", "keyword.search"} {
		if resp.Trace.Find(stage) == nil {
			t.Errorf("search trace has no %q span", stage)
		}
	}
}

// TestDebugTraces exercises the trace ring: after traffic it holds the
// most recent requests, newest first, with their span trees.
func TestDebugTraces(t *testing.T) {
	ts, _ := newTestServer(t, Options{TraceRingSize: 4, ExposeDebugTraces: true})
	createSampleDoc(t, ts)
	for i := 0; i < 6; i++ {
		query(t, ts, "ex", QueryRequest{Query: "A(B $x)"})
	}

	var resp TracesResponse
	if status := doJSON(t, "GET", ts.URL+"/debug/traces", nil, &resp); status != 200 {
		t.Fatalf("GET /debug/traces = %d", status)
	}
	if resp.Count != 4 || len(resp.Traces) != 4 {
		t.Fatalf("ring of 4 after 7 requests holds %d traces", len(resp.Traces))
	}
	if got := resp.Traces[0].Route; got != "POST /docs/{name}/query" {
		t.Errorf("newest trace route = %q", got)
	}
	for i, tr := range resp.Traces {
		if tr.Status != 200 || tr.Spans.Name == "" {
			t.Errorf("trace %d incomplete: %+v", i, tr)
		}
		if tr.Cost == nil {
			t.Errorf("trace %d has no cost profile", i)
		}
		if i > 0 && tr.Time.After(resp.Traces[i-1].Time) {
			t.Errorf("traces not newest-first at %d", i)
		}
	}

	// A disabled ring serves an empty list, not an error.
	ts2, _ := newTestServer(t, Options{TraceRingSize: -1, ExposeDebugTraces: true})
	if status := doJSON(t, "GET", ts2.URL+"/debug/traces", nil, &resp); status != 200 || resp.Count != 0 {
		t.Fatalf("disabled ring: status %d, count %d", status, resp.Count)
	}
}

// TestDebugTracesOffByDefault pins the exposure contract: the public
// mux serves /debug/traces only when ExposeDebugTraces is set —
// operators mount TracesHandler on a private debug listener instead.
func TestDebugTracesOffByDefault(t *testing.T) {
	wh, err := warehouse.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	srv := New(wh, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	createSampleDoc(t, ts)
	if status, _ := do(t, "GET", ts.URL+"/debug/traces", nil); status != http.StatusNotFound {
		t.Fatalf("GET /debug/traces on default options = %d, want 404", status)
	}
	// The ring still fills; TracesHandler serves it for a debug mux.
	rec := httptest.NewRecorder()
	srv.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("TracesHandler = %d", rec.Code)
	}
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 {
		t.Fatal("trace ring empty after traffic: the ring must fill even when the public route is off")
	}
}

// TestSlowQueryLog drives a request over a zero-ish threshold and
// checks the structured record lands in the configured logger.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	ts, _ := newTestServer(t, Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       logger,
	})
	createSampleDoc(t, ts)
	query(t, ts, "ex", QueryRequest{Query: "A(B $x)"})

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query record in log: %q", out)
	}
	if !strings.Contains(out, "POST /docs/{name}/query") {
		t.Errorf("slow-query record does not name the route: %q", out)
	}
	if !strings.Contains(out, "warehouse.query") {
		t.Errorf("slow-query record has no span breakdown: %q", out)
	}
	if !strings.Contains(out, `"cost"`) || !strings.Contains(out, "tpwj_nodes_visited") {
		t.Errorf("slow-query record has no cost profile: %q", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestStatsUptimeVersion covers the build version and uptime series of
// /stats.
func TestStatsUptimeVersion(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	m := serverStats(t, ts).Metrics
	if v := m[fmt.Sprintf("px_build_info{version=%q}", Version)]; v != 1 {
		t.Errorf("px_build_info for version %q = %v, want 1 (metrics %v)", Version, v, m)
	}
	if m["px_uptime_seconds"] <= 0 {
		t.Errorf("px_uptime_seconds = %v, want > 0", m["px_uptime_seconds"])
	}
}

// TestObsConcurrency hammers queries, searches and updates while
// other goroutines scrape /metrics, /stats and /debug/traces. Run
// under -race it proves the mutex-free recording and the scrape paths
// are safe against each other.
func TestObsConcurrency(t *testing.T) {
	ts, _ := newTestServer(t, Options{ExposeDebugTraces: true})
	createSampleDoc(t, ts)

	const workers, iters = 4, 15
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					if status, _ := query(t, ts, "ex", QueryRequest{Query: "A(B $x)"}); status != 200 {
						t.Errorf("query = %d", status)
					}
				case 1:
					var resp SearchResponse
					if status := doJSON(t, "POST", ts.URL+"/docs/ex/search",
						SearchRequest{Keywords: []string{"x"}}, &resp); status != 200 {
						t.Errorf("search = %d", status)
					}
				case 2:
					var ur UpdateResponse
					status := doJSON(t, "POST", ts.URL+"/docs/ex/update", UpdateRequest{
						Query:      "A $a",
						Confidence: 0.5,
						Ops:        []UpdateOp{{Op: "insert", Var: "$a", Tree: fmt.Sprintf("N%d_%d", g, i)}},
					}, &ur)
					if status != 200 {
						t.Errorf("update = %d", status)
					}
				case 3:
					if status, _ := do(t, "GET", ts.URL+"/docs/ex", nil); status != 200 {
						t.Errorf("GET doc = %d", status)
					}
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/metrics", "/stats", "/debug/traces"}
			for i := 0; i < iters; i++ {
				if status, _ := do(t, "GET", ts.URL+paths[(g+i)%len(paths)], nil); status != 200 {
					t.Errorf("scrape %s = %d", paths[(g+i)%len(paths)], status)
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles the registry is coherent: requests were
	// counted and the exposition still parses.
	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("final /metrics = %d", status)
	}
	samples, _ := parseExposition(t, string(body))
	s := findSample(samples, "px_http_requests_total", map[string]string{"route": "POST /docs/{name}/query"})
	if s == nil || s.value == 0 {
		t.Fatalf("query route recorded no requests: %+v", s)
	}
}

// TestStatsMirrorsMetrics pins /stats as a rendering of the registries
// /metrics exposes: after traffic through every layer, every sample of
// /metrics other than histogram buckets and sums appears in /stats under
// the same key with the same value (a histogram's _count as its count),
// and /stats has no series /metrics lacks. Requests are served in
// process, so each is recorded before the next starts. Excluded: the
// time-varying uptime and runtime series, and the series of the two
// scrapes themselves, which move between them.
func TestStatsMirrorsMetrics(t *testing.T) {
	wh, err := warehouse.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	srv := New(wh, Options{})
	serve := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for _, r := range []struct {
		method, path, body string
		status             int
	}{
		{"PUT", "/docs/ex", string(sampleDocXML(t)), http.StatusCreated},
		{"POST", "/docs/ex/query", `{"query":"A(B $x)"}`, http.StatusOK},
		{"POST", "/docs/ex/search", `{"keywords":["x"]}`, http.StatusOK},
		{"POST", "/docs/ex/update", `{"query":"A $a","confidence":0.5,"ops":[{"op":"insert","var":"a","tree":"B:y"}]}`, http.StatusOK},
		{"PUT", "/docs/ex/views/bv", `{"query":"A(B $x)"}`, http.StatusCreated},
		{"GET", "/docs/ex/views/bv", "", http.StatusOK},
		{"GET", "/docs/nope", "", http.StatusNotFound},
	} {
		if status, body := serve(r.method, r.path, []byte(r.body)); status != r.status {
			t.Fatalf("%s %s = %d, want %d: %s", r.method, r.path, status, r.status, body)
		}
	}

	_, text := serve("GET", "/metrics", nil)
	_, body := serve("GET", "/stats", nil)
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode /stats: %v\n%s", err, body)
	}
	skip := func(key string) bool {
		return strings.HasPrefix(key, "px_uptime_seconds") || strings.HasPrefix(key, "px_runtime_") ||
			strings.Contains(key, `"`+RouteStats+`"`) || strings.Contains(key, `"`+RouteMetrics+`"`)
	}

	histograms := make(map[string]bool)
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok && strings.HasSuffix(f, " histogram") {
			histograms[strings.TrimSuffix(f, " histogram")] = true
		}
		i := strings.LastIndexByte(line, ' ')
		if line == "" || strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		key := line[:i]
		want, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		name, labels, _ := strings.Cut(key, "{")
		if labels != "" {
			labels = "{" + labels
		}
		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, sfx); ok && histograms[b] {
				base, suffix = b, sfx
				break
			}
		}
		switch {
		case skip(key) || suffix == "_bucket" || suffix == "_sum":
			continue
		case suffix == "_count":
			seen[base+labels] = true
			h, ok := snap.Histograms[base+labels]
			if !ok || float64(h.Count) != want {
				t.Errorf("%s = %g in /metrics, /stats histogram %s = %+v (present %v)", key, want, base+labels, h, ok)
			}
			continue
		}
		seen[key] = true
		if got, ok := snap.Metrics[key]; !ok || got != want {
			t.Errorf("%s = %g in /metrics, %g in /stats (present %v)", key, want, got, ok)
		}
	}
	for _, m := range []map[string]bool{keys(snap.Metrics), keys(snap.Histograms)} {
		for key := range m {
			if !skip(key) && !seen[key] {
				t.Errorf("/stats reports %s, which /metrics does not", key)
			}
		}
	}
	// Spot checks across the server, warehouse and default registries.
	for _, key := range []string{
		"px_journal_bytes_total", "px_tpwj_nodes_visited_total", "px_keyword_postings_scanned_total",
		`px_cancellations_total{reason="timeout"}`, "px_load_shed_total",
	} {
		if _, ok := snap.Metrics[key]; !ok {
			t.Errorf("/stats lacks %s", key)
		}
	}
	if snap.Metrics["px_journal_bytes_total"] == 0 || snap.Metrics["px_tpwj_nodes_visited_total"] == 0 {
		t.Errorf("journal bytes %v, tpwj nodes visited %v: want both > 0 after the traffic",
			snap.Metrics["px_journal_bytes_total"], snap.Metrics["px_tpwj_nodes_visited_total"])
	}
}

func keys[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
