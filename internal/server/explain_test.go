package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// costFamilies is the category ↔ metric-family catalog the conservation
// test asserts over: every CostSnapshot field against the process-wide
// family (or single label series) it mirrors.
var costFamilies = []struct {
	name   string
	labels map[string]string
	get    func(c obs.CostSnapshot) int64
}{
	{"px_engine_compiles_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineCompiles }},
	{"px_engine_bitset_compiles_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineBitsetCompiles }},
	{"px_engine_memo_hits_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineMemoHits }},
	{"px_engine_memo_misses_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineMemoMisses }},
	{"px_engine_components_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineComponents }},
	{"px_engine_expansion_nodes_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineExpansionNodes }},
	{"px_engine_mc_samples_total", nil, func(c obs.CostSnapshot) int64 { return c.EngineMCSamples }},
	{"px_tpwj_nodes_visited_total", nil, func(c obs.CostSnapshot) int64 { return c.TpwjNodesVisited }},
	{"px_tpwj_matches_total", nil, func(c obs.CostSnapshot) int64 { return c.TpwjMatchesTried }},
	{"px_keyword_postings_scanned_total", nil, func(c obs.CostSnapshot) int64 { return c.KeywordPostingsScanned }},
	{"px_keyword_threshold_prunes_total", nil, func(c obs.CostSnapshot) int64 { return c.KeywordCandidatesPruned }},
	{"px_view_maintenance_total", map[string]string{"tier": "skip"}, func(c obs.CostSnapshot) int64 { return c.ViewMaintSkipped }},
	{"px_view_maintenance_total", map[string]string{"tier": "incremental"}, func(c obs.CostSnapshot) int64 { return c.ViewMaintIncremental }},
	{"px_view_maintenance_total", map[string]string{"tier": "recompute"}, func(c obs.CostSnapshot) int64 { return c.ViewMaintRecomputed }},
	{"px_view_answers_total", map[string]string{"outcome": "reused"}, func(c obs.CostSnapshot) int64 { return c.ViewAnswersReused }},
	{"px_view_answers_total", map[string]string{"outcome": "recomputed"}, func(c obs.CostSnapshot) int64 { return c.ViewAnswersRecomputed }},
	{"px_journal_bytes_total", nil, func(c obs.CostSnapshot) int64 { return c.JournalBytes }},
}

// scrapeFamilies reads /metrics and sums every conservation family over
// its samples matching the listed labels.
func scrapeFamilies(t *testing.T, ts *httptest.Server) []int64 {
	t.Helper()
	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	samples, _ := parseExposition(t, string(body))
	out := make([]int64, len(costFamilies))
	for i, f := range costFamilies {
		var sum float64
		for _, s := range samples {
			if s.name != f.name {
				continue
			}
			match := true
			for k, v := range f.labels {
				if s.labels[k] != v {
					match = false
					break
				}
			}
			if match {
				sum += s.value
			}
		}
		out[i] = int64(sum)
	}
	return out
}

// checkConservation asserts the acceptance criterion of the cost
// accounting: for a single isolated request, the ?explain=1 breakdown
// equals the delta of the process-wide counters across the request —
// exactly, category by category. Any drift means some code path charges
// a counter without going through obs.Charge (or vice versa).
func checkConservation(t *testing.T, what string, wantCharged bool, before, after []int64, cost obs.CostSnapshot) {
	t.Helper()
	charged := false
	for i, f := range costFamilies {
		delta := after[i] - before[i]
		got := f.get(cost)
		if got != delta {
			t.Errorf("%s: %s%v: explain cost %d != counter delta %d", what, f.name, f.labels, got, delta)
		}
		if got != 0 {
			charged = true
		}
	}
	if wantCharged && !charged {
		t.Errorf("%s: explain cost breakdown is all zeros — nothing was charged", what)
	}
}

// TestCostConservation drives one request per instrumented read path
// with ?explain=1 and checks the returned per-request cost breakdown
// against the /metrics counter deltas. The server is otherwise idle, so
// the deltas are exactly the request's charges.
func TestCostConservation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)

	// Query (full match + compile + prob pipeline).
	before := scrapeFamilies(t, ts)
	var qresp QueryResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/query?explain=1",
		QueryRequest{Query: "A(B $x)"}, &qresp); status != 200 {
		t.Fatalf("query = %d", status)
	}
	if qresp.Explain == nil {
		t.Fatal("?explain=1 query response has no explain")
	}
	checkConservation(t, "query", true, before, scrapeFamilies(t, ts), qresp.Explain.Cost)

	// Search (postings scan + per-candidate probability).
	before = scrapeFamilies(t, ts)
	var sresp SearchResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/search?explain=1",
		SearchRequest{Keywords: []string{"x"}}, &sresp); status != 200 {
		t.Fatalf("search = %d", status)
	}
	if sresp.Explain == nil {
		t.Fatal("?explain=1 search response has no explain")
	}
	checkConservation(t, "search", true, before, scrapeFamilies(t, ts), sresp.Explain.Cost)

	// View read. Registration (which materializes, charging view and
	// journal categories) happens before the scraped window; the read
	// itself serves materialized answers.
	if status := doJSON(t, "PUT", ts.URL+"/docs/ex/views/v",
		ViewRequest{Query: "A(B $x)"}, nil); status != http.StatusCreated {
		t.Fatalf("view put = %d", status)
	}
	before = scrapeFamilies(t, ts)
	var vresp ViewResponse
	if status := doJSON(t, "GET", ts.URL+"/docs/ex/views/v?explain=1", nil, &vresp); status != 200 {
		t.Fatalf("view get = %d", status)
	}
	if vresp.Explain == nil {
		t.Fatal("?explain=1 view response has no explain")
	}
	// An eagerly-materialized view serves its answers without touching
	// any counter — zero cost is the honest breakdown, and conservation
	// must still hold at zero.
	checkConservation(t, "view-read", false, before, scrapeFamilies(t, ts), vresp.Explain.Cost)
}

// TestExplainEcho pins the ?explain=1 plan summary and the opt-in
// contract (no explain without the parameter; independent of ?trace=1).
func TestExplainEcho(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)

	var resp QueryResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/query?explain=1&trace=1",
		QueryRequest{Query: "A(B $x)"}, &resp); status != 200 {
		t.Fatalf("query = %d", status)
	}
	if resp.Explain == nil || resp.Trace == nil {
		t.Fatalf("explain=%v trace=%v, want both", resp.Explain != nil, resp.Trace != nil)
	}
	plan := resp.Explain.Plan
	if plan == nil {
		t.Fatal("fresh evaluation has no plan")
	}
	if plan.Mode != "exact" || plan.Reason == "" {
		t.Errorf("plan mode %q reason %q, want exact with a reason", plan.Mode, plan.Reason)
	}
	if len(plan.Answers) != resp.Count {
		t.Errorf("plan has %d answer summaries, response has %d answers", len(plan.Answers), resp.Count)
	}
	for i, a := range plan.Answers {
		if a.Events < 0 || a.DNFClauses < 0 || (a.DNFClauses > 0 && a.DNFWidth == 0) {
			t.Errorf("answer plan %d malformed: %+v", i, a)
		}
	}

	// MC mode is reflected in the plan.
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/query?explain=1",
		QueryRequest{Query: "A(B $x)", Mode: "mc", Samples: 500}, &resp); status != 200 {
		t.Fatalf("mc query = %d", status)
	}
	if p := resp.Explain.Plan; p == nil || p.Mode != "mc" || p.Samples != 500 {
		t.Errorf("mc plan = %+v, want mode=mc samples=500", resp.Explain.Plan)
	}
	if resp.Explain.Cost.EngineMCSamples == 0 {
		t.Error("mc evaluation charged no MC samples")
	}

	// Search explain carries candidate/prune counts.
	var sresp SearchResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/search?explain=1",
		SearchRequest{Keywords: []string{"x"}}, &sresp); status != 200 {
		t.Fatalf("search = %d", status)
	}
	if sresp.Explain == nil || sresp.Explain.Plan == nil {
		t.Fatal("search explain/plan missing")
	}
	if sresp.Explain.Cost.KeywordPostingsScanned == 0 {
		t.Error("search charged no postings")
	}

	// Without the parameter, no explain.
	if _, r := query(t, ts, "ex", QueryRequest{Query: "A(B $x)"}); r.Explain != nil {
		t.Error("response without ?explain=1 carries explain")
	}
}

// TestStatsRuntime covers the px_runtime_* series of /stats: live
// values from runtime/metrics, quantiles in sane relation.
func TestStatsRuntime(t *testing.T) {
	runtime.GC() // ensure at least one cycle so pause stats exist
	ts, _ := newTestServer(t, Options{})
	snap := serverStats(t, ts)
	for _, name := range []string{"px_runtime_goroutines", "px_runtime_heap_bytes", "px_runtime_live_bytes", "px_runtime_gc_cycles"} {
		if v := snap.Metrics[name]; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if n := snap.Histograms["px_runtime_gc_pause_seconds"].Count; n <= 0 {
		t.Errorf("px_runtime_gc_pause_seconds count = %d, want > 0 after runtime.GC()", n)
	}
	for _, name := range []string{"px_runtime_gc_pause_seconds", "px_runtime_sched_latency_seconds"} {
		if h := snap.Histograms[name]; h.P50MS < 0 || h.P95MS < h.P50MS || h.P99MS < h.P95MS {
			t.Errorf("%s quantiles out of order: %+v", name, h)
		}
	}
}

// TestRuntimeMetricsExposition checks the px_runtime_* families on
// /metrics: gauges present with live values, histograms declared and
// internally consistent (cumulative buckets non-decreasing, +Inf equals
// the count — the general invariants TestMetricsExposition asserts for
// every histogram, pinned here explicitly for the runtime families).
func TestRuntimeMetricsExposition(t *testing.T) {
	runtime.GC()
	ts, _ := newTestServer(t, Options{})
	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	samples, types := parseExposition(t, string(body))

	for _, name := range []string{
		"px_runtime_goroutines",
		"px_runtime_heap_bytes",
		"px_runtime_live_bytes",
		"px_runtime_gc_cycles",
	} {
		s := findSample(samples, name, nil)
		if s == nil {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if types[name] != "gauge" {
			t.Errorf("%s declared %q, want gauge", name, types[name])
		}
		if s.value <= 0 {
			t.Errorf("%s = %g, want > 0", name, s.value)
		}
	}

	for _, name := range []string{"px_runtime_gc_pause_seconds", "px_runtime_sched_latency_seconds"} {
		if types[name] != "histogram" {
			t.Errorf("%s declared %q, want histogram", name, types[name])
		}
		var count, inf float64
		var last float64
		var buckets int
		sawInf := false
		for _, s := range samples {
			switch s.name {
			case name + "_count":
				count = s.value
			case name + "_bucket":
				buckets++
				if s.value < last {
					t.Errorf("%s: bucket le=%s decreases (%g < %g)", name, s.labels["le"], s.value, last)
				}
				last = s.value
				if s.labels["le"] == "+Inf" {
					sawInf = true
					inf = s.value
				}
			}
		}
		if buckets == 0 {
			t.Errorf("%s has no buckets", name)
			continue
		}
		if !sawInf {
			t.Errorf("%s has no +Inf bucket", name)
		}
		if inf != count {
			t.Errorf("%s: +Inf bucket %g != count %g", name, inf, count)
		}
		if strings.HasSuffix(name, "gc_pause_seconds") && count <= 0 {
			t.Errorf("%s count = %g, want > 0 after runtime.GC()", name, count)
		}
	}
}
