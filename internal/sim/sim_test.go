package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/warehouse"
)

// boot starts an in-process pxserve: warehouse on a temp dir behind an
// httptest server.
func boot(t *testing.T) *httptest.Server {
	t.Helper()
	wh, err := warehouse.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() }) //nolint:errcheck
	ts := httptest.NewServer(server.New(wh, server.Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// bootFaulty is boot with a fault-injecting filesystem.
func bootFaulty(t *testing.T) (*httptest.Server, *vfs.Injector) {
	t.Helper()
	inj := vfs.NewInjector()
	wh, err := warehouse.OpenFS(t.TempDir(), vfs.NewFaultFS(vfs.OS, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() }) //nolint:errcheck
	ts := httptest.NewServer(server.New(wh, server.Options{}))
	t.Cleanup(ts.Close)
	return ts, inj
}

func testConfig(ts *httptest.Server) Config {
	return Config{
		Endpoint:      ts.URL,
		Tenants:       8,
		DocsPerTenant: 2,
		Seed:          42,
		Ops:           600,
		Workers:       4,
		CheckEvery:    5,
		HTTPClient:    ts.Client(),
	}
}

// TestRunZeroDiscrepancies is the core acceptance check: a mixed
// 8-tenant workload with spot checks on, against a healthy server,
// must audit with zero discrepancies — every update statistic matched,
// every content hash resolved, every counter reconciled.
func TestRunZeroDiscrepancies(t *testing.T) {
	ts := boot(t)
	rep, err := Run(context.Background(), testConfig(ts))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit.DiscrepancyCount != 0 {
		t.Fatalf("audit found %d discrepancies:\n%s",
			rep.Audit.DiscrepancyCount, strings.Join(rep.Audit.Discrepancies, "\n"))
	}
	if rep.Ops != 600 {
		t.Errorf("executed %d ops, want 600", rep.Ops)
	}
	if rep.Audit.Checks < 100 {
		t.Errorf("audit performed only %d checks", rep.Audit.Checks)
	}
	if rep.Audit.Degraded {
		t.Error("healthy run reports degraded")
	}
	if rep.EventsPerSec <= 0 {
		t.Errorf("events/sec = %g", rep.EventsPerSec)
	}
	if len(rep.Routes) == 0 {
		t.Fatal("report has no route measurements")
	}
	seen := make(map[string]bool)
	for _, rr := range rep.Routes {
		seen[rr.Route] = true
		if rr.Requests > 0 && rr.P50MS < 0 {
			t.Errorf("route %s: negative p50", rr.Route)
		}
	}
	for _, want := range []string{server.RouteQuery, server.RouteUpdate, server.RouteCreate} {
		if !seen[want] {
			t.Errorf("report missing route %s", want)
		}
	}
	if rep.Fingerprint == "" {
		t.Error("empty model fingerprint")
	}
}

// TestDeterminism pins the reproducibility contract: two runs with the
// same seed against fresh warehouses produce byte-identical workload
// logs and identical expected-state model fingerprints; a different
// seed produces a different log.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (string, string) {
		ts := boot(t)
		var log bytes.Buffer
		cfg := testConfig(ts)
		cfg.Seed = seed
		cfg.Ops = 400
		cfg.LogW = &log
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Audit.DiscrepancyCount != 0 {
			t.Fatalf("seed %d: %d discrepancies:\n%s", seed,
				rep.Audit.DiscrepancyCount, strings.Join(rep.Audit.Discrepancies, "\n"))
		}
		return log.String(), rep.Fingerprint
	}
	log1, fp1 := run(7)
	log2, fp2 := run(7)
	if log1 != log2 {
		t.Error("equal-seed runs produced different workload logs")
	}
	if fp1 != fp2 {
		t.Error("equal-seed runs produced different model fingerprints")
	}
	if log1 == "" {
		t.Fatal("empty workload log")
	}
	log3, _ := run(8)
	if log1 == log3 {
		t.Error("different seeds produced identical workload logs")
	}
}

// TestAuditDetectsOutOfBandWrite is the negative control: the harness
// must actually be able to fail. An update slipped in between drain
// and audit — exactly what a lost-update bug would look like from the
// ledger's point of view — must surface as discrepancies in the
// counter reconciliation and the content hash comparison.
func TestAuditDetectsOutOfBandWrite(t *testing.T) {
	ts := boot(t)
	cfg := testConfig(ts)
	cfg.Ops = 200
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The out-of-band write: not in any client ledger, not applied to
	// the shadow.
	body, _ := json.Marshal(server.UpdateRequest{
		Query:      "A $a",
		Confidence: 1,
		Ops:        []server.UpdateOp{{Op: "insert", Var: "a", Tree: "Z:intruder"}},
	})
	resp, err := ts.Client().Post(ts.URL+"/docs/t0-d0/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("out-of-band update = %d", resp.StatusCode)
	}

	audit, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.DiscrepancyCount == 0 {
		t.Fatal("audit missed the out-of-band write")
	}
	all := strings.Join(audit.Discrepancies, "\n")
	if !strings.Contains(all, "stats: route POST /docs/{name}/update") {
		t.Errorf("no counter discrepancy reported:\n%s", all)
	}
	if !strings.Contains(all, "content hash") {
		t.Errorf("no content discrepancy reported:\n%s", all)
	}
}

// TestFaultReconciliation pins the degraded-mode audit semantics: a
// journal fsync fault injected mid-run degrades the warehouse; the op
// that hit the fault has ambiguous server-side state (the audit
// resolves it from the observed content), every later write is an
// upfront 503 rejection, and the audit reconciles all of it with zero
// discrepancies instead of false-failing.
func TestFaultReconciliation(t *testing.T) {
	ts, inj := bootFaulty(t)
	cfg := testConfig(ts)
	cfg.Ops = 300
	// Update-heavy so the fault lands quickly and plenty of degraded
	// rejections follow.
	cfg.Mix = Mix{OpQuery: 20, OpSearch: 5, OpUpdate: 45, OpViewRead: 10, OpRegisterView: 5, OpRead: 15}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Setup(); err != nil {
		t.Fatal(err)
	}
	inj.Set("journal.sync", vfs.Fault{Count: 1})
	if err := r.RunWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}
	audit, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Degraded {
		t.Fatal("fault never degraded the warehouse (fault not hit?)")
	}
	if audit.DiscrepancyCount != 0 {
		t.Fatalf("audit false-failed under injected fault: %d discrepancies:\n%s",
			audit.DiscrepancyCount, strings.Join(audit.Discrepancies, "\n"))
	}
	if audit.FailedWrites == 0 {
		t.Error("degraded run reports no failed writes")
	}
	if audit.AmbiguousApplied+audit.AmbiguousAborted == 0 {
		t.Error("the faulted write was never resolved as applied or aborted")
	}
}

// TestClientLadderMatchesServer pins that the client-side latency
// histograms use exactly the shared obs bucket ladder, the property
// that makes pxsim's client percentiles comparable with the server's
// px_http_request_seconds series.
func TestClientLadderMatchesServer(t *testing.T) {
	c := newClient("http://localhost:0", nil, nil)
	for route, rs := range c.routes {
		bounds := rs.hist.Bounds()
		if len(bounds) != len(obs.DefaultBuckets) {
			t.Fatalf("route %s: %d bounds, want %d", route, len(bounds), len(obs.DefaultBuckets))
		}
		for i := range bounds {
			if bounds[i] != obs.DefaultBuckets[i] {
				t.Errorf("route %s: bound[%d] = %g, want %g", route, i, bounds[i], obs.DefaultBuckets[i])
			}
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("query=40, update=10,search=0")
	if err != nil {
		t.Fatal(err)
	}
	if m[OpQuery] != 40 || m[OpUpdate] != 10 || m[OpSearch] != 0 {
		t.Errorf("parsed %v", m)
	}
	if got := m.String(); got != "query=40,update=10" {
		t.Errorf("canonical form %q", got)
	}
	for _, bad := range []string{"", "query", "query=-1", "frobnicate=3", "query=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded", bad)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	if b := newTokenBucket(0, 4); b != nil {
		t.Error("rate 0 should disable the bucket")
	}
	b := newTokenBucket(500, 1)
	start := time.Now()
	for i := 0; i < 6; i++ {
		b.take()
	}
	// Burst 1 at 500/s: 6 takes need ≥ ~10ms of refill. Generous upper
	// bound keeps slow CI green.
	if el := time.Since(start); el < 5*time.Millisecond || el > 10*time.Second {
		t.Errorf("6 takes at 500/s burst 1 took %v", el)
	}
}

// TestGeneratorStreamIsPure pins that generation alone (no execution)
// is deterministic and never emits an unrunnable op: every view read
// names a previously registered view, every op targets a document in
// the grid.
func TestGeneratorStreamIsPure(t *testing.T) {
	docs := docNames(3, 2)
	mk := func() []string {
		g := newGenerator(99, docs, DefaultMix(), 1.2, 4)
		var lines []string
		registered := make(map[string]map[string]bool)
		for _, d := range docs {
			registered[d] = make(map[string]bool)
		}
		for i := 0; i < 500; i++ {
			op := g.next()
			if _, ok := registered[op.Doc]; !ok {
				t.Fatalf("op %d targets unknown doc %q", op.Seq, op.Doc)
			}
			switch op.Kind {
			case OpRegisterView:
				registered[op.Doc][op.ViewName] = true
			case OpViewRead:
				if !registered[op.Doc][op.ViewName] {
					t.Fatalf("op %d reads unregistered view %s/%s", op.Seq, op.Doc, op.ViewName)
				}
			}
			lines = append(lines, op.logLine())
		}
		return lines
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation diverged at op %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}
