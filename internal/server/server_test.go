package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
)

// newTestServer starts a server over a fresh warehouse.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *warehouse.Warehouse) {
	t.Helper()
	wh, err := warehouse.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	ts := httptest.NewServer(New(wh, opts))
	t.Cleanup(ts.Close)
	return ts, wh
}

// sampleDocXML serializes the running example document "A(B[w1]:x,
// C(D[w2]))" with P(w1)=0.8, P(w2)=0.7.
func sampleDocXML(t *testing.T) []byte {
	t.Helper()
	ft := fuzzy.MustParseTree("A(B[w1]:x, C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	data, err := xmlio.DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// do performs one request and returns the status and body.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// doJSON performs a request with a JSON body and decodes a JSON reply
// into out (when non-nil).
func doJSON(t *testing.T, method, url string, reqBody, out any) int {
	t.Helper()
	var body []byte
	if reqBody != nil {
		var err error
		if body, err = json.Marshal(reqBody); err != nil {
			t.Fatal(err)
		}
	}
	status, data := do(t, method, url, body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return status
}

func query(t *testing.T, ts *httptest.Server, doc string, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	var resp QueryResponse
	status := doJSON(t, "POST", ts.URL+"/docs/"+doc+"/query", req, &resp)
	return status, resp
}

func serverStats(t *testing.T, ts *httptest.Server) StatsSnapshot {
	t.Helper()
	var snap StatsSnapshot
	if status := doJSON(t, "GET", ts.URL+"/stats", nil, &snap); status != 200 {
		t.Fatalf("GET /stats = %d", status)
	}
	return snap
}

// TestLifecycle drives the full document lifecycle over HTTP — create,
// query, update, re-query, simplify, drop — checking that every read
// sees the document's current version.
func TestLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Options{})

	// Create.
	status, body := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t))
	if status != http.StatusCreated {
		t.Fatalf("PUT = %d, body %s", status, body)
	}
	var created DocInfo
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Nodes != 4 || created.Events != 2 || created.Worlds != 4 {
		t.Errorf("created info = %+v, want 4 nodes, 2 events, 4 worlds", created)
	}

	// List.
	var list ListResponse
	if status := doJSON(t, "GET", ts.URL+"/docs", nil, &list); status != 200 {
		t.Fatalf("GET /docs = %d", status)
	}
	if len(list.Documents) != 1 || list.Documents[0] != "ex" {
		t.Errorf("list = %v, want [ex]", list.Documents)
	}

	// Fetch round-trips through the pxml codec.
	status, body = do(t, "GET", ts.URL+"/docs/ex", nil)
	if status != 200 {
		t.Fatalf("GET /docs/ex = %d", status)
	}
	if _, err := xmlio.ParseDoc(body); err != nil {
		t.Fatalf("returned document does not parse: %v", err)
	}

	// Query.
	status, qr := query(t, ts, "ex", QueryRequest{Query: "A(B)"})
	if status != 200 {
		t.Fatalf("query = %d", status)
	}
	if qr.Count != 1 || qr.Answers[0].P != 0.8 {
		t.Errorf("first query = %+v, want a single answer P=0.8", qr)
	}

	// Update through the textual form.
	var ur UpdateResponse
	status = doJSON(t, "POST", ts.URL+"/docs/ex/update", UpdateRequest{
		Query:      "A $a",
		Confidence: 0.5,
		Ops:        []UpdateOp{{Op: "insert", Var: "$a", Tree: "B:fresh"}},
	}, &ur)
	if status != 200 {
		t.Fatalf("update = %d", status)
	}
	if ur.Valuations != 1 || ur.Inserted != 1 || ur.Event == "" {
		t.Errorf("update stats = %+v, want 1 valuation, 1 insert, fresh event", ur)
	}

	status, qr = query(t, ts, "ex", QueryRequest{Query: "A(B)"})
	if status != 200 {
		t.Fatalf("post-update query = %d", status)
	}
	if qr.Count != 2 {
		t.Errorf("post-update answers = %d, want 2 (old B and inserted B)", qr.Count)
	}

	var sr SimplifyResponse
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/simplify", nil, &sr); status != 200 {
		t.Fatalf("simplify = %d", status)
	}
	if status, qr = query(t, ts, "ex", QueryRequest{Query: "A(B)"}); status != 200 || qr.Count == 0 {
		t.Errorf("post-simplify query = %d %+v, want the B answers", status, qr)
	}

	// Stat reflects the mutations.
	var info DocInfo
	if status := doJSON(t, "GET", ts.URL+"/docs/ex/stat", nil, &info); status != 200 {
		t.Fatalf("stat = %d", status)
	}
	if info.Name != "ex" || info.Nodes < 4 {
		t.Errorf("stat = %+v", info)
	}

	// Drop, then every read fails with 404.
	if status, _ := do(t, "DELETE", ts.URL+"/docs/ex", nil); status != 200 {
		t.Fatalf("DELETE = %d", status)
	}
	if status, _ := do(t, "GET", ts.URL+"/docs/ex", nil); status != http.StatusNotFound {
		t.Errorf("GET after drop = %d, want 404", status)
	}
	if status, _ = query(t, ts, "ex", QueryRequest{Query: "A(B)"}); status != http.StatusNotFound {
		t.Errorf("query after drop = %d, want 404", status)
	}
}

func TestQueryModesAndSyntaxes(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, body := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != 201 {
		t.Fatalf("PUT = %d, %s", status, body)
	}

	// XPath compiles to the same pattern and must return the same
	// probability.
	status, qr := query(t, ts, "ex", QueryRequest{Query: "/A/B", Syntax: "xpath"})
	if status != 200 || qr.Count != 1 {
		t.Fatalf("xpath query = %d %+v", status, qr)
	}
	if qr.Answers[0].P != 0.8 {
		t.Errorf("xpath answer P = %v, want 0.8", qr.Answers[0].P)
	}

	// Monte-Carlo mode estimates the same probability, reproducibly for
	// a given seed.
	status, qr = query(t, ts, "ex", QueryRequest{Query: "A(B)", Mode: "mc", Samples: 4000, Seed: 7})
	if status != 200 || qr.Count != 1 {
		t.Fatalf("mc query = %d %+v", status, qr)
	}
	if p := qr.Answers[0].P; p < 0.7 || p > 0.9 {
		t.Errorf("mc estimate P = %v, want ~0.8", p)
	}
	_, qr2 := query(t, ts, "ex", QueryRequest{Query: "A(B)", Mode: "mc", Samples: 4000, Seed: 7})
	if qr2.Answers[0].P != qr.Answers[0].P {
		t.Errorf("repeated mc query: P=%v, want the identical estimate %v", qr2.Answers[0].P, qr.Answers[0].P)
	}

	// The samples limit only applies to mc mode: exact mode ignores
	// the field entirely.
	if status, _ := query(t, ts, "ex", QueryRequest{Query: "A(B)", Samples: 2 * MaxSamples}); status != 200 {
		t.Errorf("exact query with large unused samples = %d, want 200", status)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create bad xml", "PUT", "/docs/bad", "<pxml", http.StatusBadRequest},
		{"create duplicate", "PUT", "/docs/ex", string(sampleDocXML(t)), http.StatusConflict},
		{"create invalid name", "PUT", "/docs/bad%20name", string(sampleDocXML(t)), http.StatusBadRequest},
		{"get missing", "GET", "/docs/nope", "", http.StatusNotFound},
		{"drop missing", "DELETE", "/docs/nope", "", http.StatusNotFound},
		{"stat missing", "GET", "/docs/nope/stat", "", http.StatusNotFound},
		{"simplify missing", "POST", "/docs/nope/simplify", "", http.StatusNotFound},
		{"query missing doc", "POST", "/docs/nope/query", `{"query":"A(B)"}`, http.StatusNotFound},
		{"query bad syntax", "POST", "/docs/ex/query", `{"query":"A(("}`, http.StatusBadRequest},
		{"query bad json", "POST", "/docs/ex/query", `{"query":`, http.StatusBadRequest},
		{"query unknown field", "POST", "/docs/ex/query", `{"query":"A(B)","nope":1}`, http.StatusBadRequest},
		{"query unknown syntax", "POST", "/docs/ex/query", `{"query":"A(B)","syntax":"sql"}`, http.StatusBadRequest},
		{"query unknown mode", "POST", "/docs/ex/query", `{"query":"A(B)","mode":"psychic"}`, http.StatusBadRequest},
		{"query samples too large", "POST", "/docs/ex/query", `{"query":"A(B)","mode":"mc","samples":2000000000}`, http.StatusBadRequest},
		{"query bad xpath", "POST", "/docs/ex/query", `{"query":"///","syntax":"xpath"}`, http.StatusBadRequest},
		{"update empty", "POST", "/docs/ex/update", `{}`, http.StatusBadRequest},
		{"update both forms", "POST", "/docs/ex/update", `{"tx_xml":"<transaction/>","query":"A $a"}`, http.StatusBadRequest},
		{"update bad tx xml", "POST", "/docs/ex/update", `{"tx_xml":"<transaction"}`, http.StatusBadRequest},
		{"update bad op", "POST", "/docs/ex/update", `{"query":"A $a","confidence":0.5,"ops":[{"op":"upsert","var":"a"}]}`, http.StatusBadRequest},
		{"update unbound var", "POST", "/docs/ex/update", `{"query":"A $a","confidence":0.5,"ops":[{"op":"delete","var":"z"}]}`, http.StatusBadRequest},
		{"update bad confidence", "POST", "/docs/ex/update", `{"query":"A $a","confidence":1.5,"ops":[{"op":"delete","var":"a"}]}`, http.StatusBadRequest},
		{"update missing doc", "POST", "/docs/nope/update", `{"query":"A $a","confidence":0.5,"ops":[{"op":"delete","var":"a"}]}`, http.StatusNotFound},
		{"method not allowed", "POST", "/docs/ex", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, tc.method, ts.URL+tc.path, []byte(tc.body))
			if status != tc.want {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, status, tc.want, body)
			}
			if tc.want != http.StatusMethodNotAllowed {
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
					t.Errorf("error body = %q, want {\"error\": ...}", body)
				}
			}
		})
	}
}

func TestUpdateViaXUpdateXML(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}
	txXML := `<transaction confidence="0.5">
  <where>A(C $c)</where>
  <delete select="$c"/>
</transaction>`
	var ur UpdateResponse
	status := doJSON(t, "POST", ts.URL+"/docs/ex/update", UpdateRequest{TxXML: txXML}, &ur)
	if status != 200 {
		t.Fatalf("xupdate = %d", status)
	}
	if ur.Valuations != 1 {
		t.Errorf("valuations = %d, want 1", ur.Valuations)
	}
}

func TestAdminRoutes(t *testing.T) {
	ts, wh := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}
	var out map[string]bool
	if status := doJSON(t, "POST", ts.URL+"/admin/compact", nil, &out); status != 200 || !out["compacted"] {
		t.Fatalf("compact = %d %v", status, out)
	}
	recs, err := wh.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("journal after compact has %d records, want 0", len(recs))
	}
	var health map[string]string
	if status := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); status != 200 || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, health)
	}
}

func TestStatsTracksRoutes(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t))
	do(t, "GET", ts.URL+"/docs/nope", nil)
	snap := serverStats(t, ts)
	if rs := snap.Requests["PUT /docs/{name}"]; rs.Count != 1 || rs.Errors != 0 {
		t.Errorf("PUT route stats = %+v, want count 1, errors 0", rs)
	}
	if rs := snap.Requests["GET /docs/{name}"]; rs.Count != 1 || rs.Errors != 1 {
		t.Errorf("GET route stats = %+v, want count 1, errors 1", rs)
	}
}

// TestStatsSurfacesEngineCounters checks that /stats reports the
// probability-engine counters and that running an exact query advances
// them (the counters are process-global, so only growth is asserted).
func TestStatsSurfacesEngineCounters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}
	before := serverStats(t, ts).Engine
	if status, _ := query(t, ts, "ex", QueryRequest{Query: "A(B $b)"}); status != 200 {
		t.Fatal("query failed")
	}
	after := serverStats(t, ts).Engine
	if after.Compiles <= before.Compiles {
		t.Errorf("engine compiles did not advance: %d -> %d", before.Compiles, after.Compiles)
	}
	if after.BitsetCompiles <= before.BitsetCompiles {
		t.Errorf("bitset compiles did not advance: %d -> %d", before.BitsetCompiles, after.BitsetCompiles)
	}
}

// TestStatsSurfacesJournalCounters checks that /stats reports the
// warehouse journal counters and that a mutation advances the durable
// append count, and the full-state count only when its record carries
// the document.
func TestStatsSurfacesJournalCounters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	before := serverStats(t, ts).Journal
	if status, _ := do(t, "PUT", ts.URL+"/docs/jc", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}
	after := serverStats(t, ts).Journal
	// A create is one journal record and one fsync, and carries the
	// document.
	if after.Appends != before.Appends+1 || after.FullStateRecords != before.FullStateRecords+1 {
		t.Errorf("journal appends = %d -> %d, full-state records %d -> %d, want +1 and +1",
			before.Appends, after.Appends, before.FullStateRecords, after.FullStateRecords)
	}
	if after.SyncBatches != before.SyncBatches+1 {
		t.Errorf("sync batches = %d -> %d, want +1", before.SyncBatches, after.SyncBatches)
	}
	// The update after it journals its transaction only.
	if status := doJSON(t, "POST", ts.URL+"/docs/jc/update", UpdateRequest{
		Query: "A $a", Confidence: 0.5, Ops: []UpdateOp{{Op: "insert", Var: "$a", Tree: "N"}},
	}, nil); status != 200 {
		t.Fatalf("update = %d", status)
	}
	updated := serverStats(t, ts).Journal
	if updated.Appends != after.Appends+1 || updated.FullStateRecords != after.FullStateRecords {
		t.Errorf("after an update: %+v, want one more append and no full-state record", updated)
	}
	if updated.RecoveryTxReplayed != 0 {
		t.Errorf("recovery_tx_replayed = %d on a fresh warehouse", updated.RecoveryTxReplayed)
	}
}

// TestStatsSurfacesStorageSection checks that /stats reports the
// storage backend and its footprint, and that a create grows it.
func TestStatsSurfacesStorageSection(t *testing.T) {
	ts, wh := newTestServer(t, Options{})
	before := serverStats(t, ts).Storage
	if before.Backend != wh.Backend() || before.Backend == "" {
		t.Errorf("storage backend = %q, want warehouse's %q", before.Backend, wh.Backend())
	}
	if status, _ := do(t, "PUT", ts.URL+"/docs/st", sampleDocXML(t)); status != 201 {
		t.Fatal("setup create failed")
	}
	after := serverStats(t, ts).Storage
	if after.Docs != before.Docs+1 {
		t.Errorf("storage docs = %d -> %d, want +1", before.Docs, after.Docs)
	}
	if after.Bytes <= before.Bytes || after.LiveBytes <= 0 {
		t.Errorf("storage footprint did not grow: %+v -> %+v", before, after)
	}
}

// TestOversizedBodyGets413 pins the body-limit status: too large is
// 413, not 400, so clients can tell "back off" from "fix the payload".
func TestOversizedBodyGets413(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 512})
	big := bytes.Repeat([]byte("x"), 2048)
	if status, _ := do(t, "PUT", ts.URL+"/docs/big", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT = %d, want 413", status)
	}
	body := append([]byte(`{"query":"`), big...)
	body = append(body, []byte(`"}`)...)
	if status, _ := do(t, "POST", ts.URL+"/docs/big/query", body); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query = %d, want 413", status)
	}
}

// TestConcurrentClients hammers one server with parallel queries and
// updates across two documents; run under -race.
func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, name := range []string{"a", "b"} {
		if status, _ := do(t, "PUT", ts.URL+"/docs/"+name, sampleDocXML(t)); status != 201 {
			t.Fatal("setup create failed")
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 128)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc := []string{"a", "b"}[i%2]
			for j := 0; j < 10; j++ {
				if i%4 == 3 && j%5 == 0 {
					var ur UpdateResponse
					status := doJSON(t, "POST", ts.URL+"/docs/"+doc+"/update", UpdateRequest{
						Query:      "A $a",
						Confidence: 0.5,
						Ops:        []UpdateOp{{Op: "insert", Var: "a", Tree: fmt.Sprintf("N%d_%d", i, j)}},
					}, &ur)
					if status != 200 {
						errs <- fmt.Sprintf("update %s = %d", doc, status)
					}
					continue
				}
				status, qr := query(t, ts, doc, QueryRequest{Query: "A(B)"})
				if status != 200 || qr.Count < 1 {
					errs <- fmt.Sprintf("query %s = %d count=%d", doc, status, qr.Count)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	snap := serverStats(t, ts)
	if strings.Contains(fmt.Sprint(snap.Requests), "error") {
		t.Errorf("unexpected route errors: %+v", snap.Requests)
	}
}

// TestReadsFollowWarehouseVersions pins the staleness contract of
// queries and searches: every request reads the document's current
// snapshot, so a mutation is visible wherever it comes from — here the
// warehouse is updated, reopened and dropped behind the server's back,
// none of which passes through a route.
func TestReadsFollowWarehouseVersions(t *testing.T) {
	ts, wh := newTestServer(t, Options{})
	createSampleDoc(t, ts)
	qreq := QueryRequest{Query: "A(B)"}
	sreq := SearchRequest{Keywords: []string{"x"}}
	// read asks the query and the search once.
	read := func() (qr QueryResponse, sr SearchResponse) {
		t.Helper()
		status, qr := query(t, ts, "ex", qreq)
		if status != 200 {
			t.Fatalf("query = %d", status)
		}
		status, sr = search(t, ts, "ex", sreq)
		if status != 200 {
			t.Fatalf("search = %d", status)
		}
		return qr, sr
	}

	read()
	tx := update.New(tpwj.MustParseQuery("A $a"), 1, update.Insert("a", tree.MustParse("B:x")))
	if _, err := wh.UpdateCtx(context.Background(), "ex", tx); err != nil {
		t.Fatal(err)
	}
	qr, sr := read()
	if len(qr.Answers) != 1 || qr.Answers[0].P != 1 || sr.Count != 2 {
		t.Errorf("after a direct update: %+v / %+v, want the inserted certain B:x visible", qr, sr)
	}

	if err := wh.Reopen(); err != nil {
		t.Fatal(err)
	}
	if qr2, sr2 := read(); !reflect.DeepEqual(qr2.Answers, qr.Answers) || sr2.Count != sr.Count {
		t.Errorf("after a direct reopen: %+v / %+v, want the answers from before it", qr2, sr2)
	}

	if err := wh.Drop("ex"); err != nil {
		t.Fatal(err)
	}
	if status, _ := query(t, ts, "ex", qreq); status != 404 {
		t.Errorf("query after a direct drop = %d, want 404", status)
	}
	if status, _ := search(t, ts, "ex", sreq); status != 404 {
		t.Errorf("search after a direct drop = %d, want 404", status)
	}
	// The name comes back with different content; the old version's
	// answers must not answer for it.
	if err := wh.Create("ex", fuzzy.MustParseTree("A(C)", nil)); err != nil {
		t.Fatal(err)
	}
	if qr, sr := read(); qr.Count != 0 || sr.Count != 0 {
		t.Errorf("after drop and re-create: %+v / %+v, want fresh empty answers", qr, sr)
	}
}

// TestRepeatedQueryReevaluates pins that the server keeps no result
// memo of its own: the same query, and the same search, asked twice of
// an unchanged document are both evaluated, with the matcher or the
// keyword engine charged on the repeat too. A client that repeats a
// query registers a view instead.
func TestRepeatedQueryReevaluates(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	createSampleDoc(t, ts)
	for i := 0; i < 2; i++ {
		var qr QueryResponse
		if status := doJSON(t, "POST", ts.URL+"/docs/ex/query?explain=1",
			QueryRequest{Query: "A(B)"}, &qr); status != 200 {
			t.Fatalf("query %d = %d", i, status)
		}
		if qr.Cached || qr.Explain == nil || qr.Explain.Plan == nil ||
			qr.Explain.Cost.TpwjNodesVisited == 0 {
			t.Errorf("query %d: cached=%v explain=%+v, want an evaluation with a plan that visited nodes",
				i, qr.Cached, qr.Explain)
		}
		var sr SearchResponse
		if status := doJSON(t, "POST", ts.URL+"/docs/ex/search?explain=1",
			SearchRequest{Keywords: []string{"x"}}, &sr); status != 200 {
			t.Fatalf("search %d = %d", i, status)
		}
		if sr.Cached || sr.Explain == nil || sr.Explain.Plan == nil ||
			sr.Explain.Cost.KeywordPostingsScanned == 0 {
			t.Errorf("search %d: cached=%v explain=%+v, want an evaluation with a plan that scanned postings",
				i, sr.Cached, sr.Explain)
		}
	}
	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	if strings.Contains(string(body), "px_cache_") {
		t.Error("/metrics still exposes a px_cache_ family")
	}
}
