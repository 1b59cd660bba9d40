package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// registerSample creates the sample document and registers a view of
// its B leaves.
func registerSample(t *testing.T, ts string) {
	t.Helper()
	status, body := do(t, "PUT", ts+"/docs/doc1", sampleDocXML(t))
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	var resp ViewResponse
	if s := doJSON(t, "PUT", ts+"/docs/doc1/views/bview", ViewRequest{Query: "A(B $x)"}, &resp); s != http.StatusCreated {
		t.Fatalf("register view: %d", s)
	}
	if resp.Count != 1 || resp.Name != "bview" || resp.Stale {
		t.Fatalf("register response: %+v", resp)
	}
}

func TestViewRoutes(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	registerSample(t, ts.URL)

	// Read: one answer with P(w1) = 0.8.
	var got ViewResponse
	if s := doJSON(t, "GET", ts.URL+"/docs/doc1/views/bview", nil, &got); s != http.StatusOK {
		t.Fatalf("read view: %d", s)
	}
	if got.Count != 1 || got.Answers[0].P != 0.8 || got.Stale {
		t.Fatalf("view read: %+v", got)
	}

	// List.
	var list ViewListResponse
	if s := doJSON(t, "GET", ts.URL+"/docs/doc1/views", nil, &list); s != http.StatusOK {
		t.Fatalf("list views: %d", s)
	}
	if len(list.Views) != 1 || list.Views[0].Name != "bview" || list.Views[0].Query != "A(B $x)" {
		t.Fatalf("view list: %+v", list)
	}

	// An update that deletes B must flow into the maintained answers.
	var upd UpdateResponse
	if s := doJSON(t, "POST", ts.URL+"/docs/doc1/update", UpdateRequest{
		Query: "A(B $b)", Confidence: 0.5, Ops: []UpdateOp{{Op: "delete", Var: "b"}},
	}, &upd); s != http.StatusOK {
		t.Fatalf("update: %d", s)
	}
	if s := doJSON(t, "GET", ts.URL+"/docs/doc1/views/bview", nil, &got); s != http.StatusOK {
		t.Fatalf("read view after update: %d", s)
	}
	if got.Count != 1 || got.Answers[0].P != 0.4 {
		t.Fatalf("view after update: %+v", got)
	}

	// Conflicts and misses map to conventional status codes.
	if s := doJSON(t, "PUT", ts.URL+"/docs/doc1/views/bview", ViewRequest{Query: "A $x"}, nil); s != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", s)
	}
	if s := doJSON(t, "GET", ts.URL+"/docs/doc1/views/nope", nil, nil); s != http.StatusNotFound {
		t.Fatalf("missing view read: %d, want 404", s)
	}
	if s := doJSON(t, "PUT", ts.URL+"/docs/nodoc/views/v", ViewRequest{Query: "A $x"}, nil); s != http.StatusNotFound {
		t.Fatalf("register on missing doc: %d, want 404", s)
	}
	if s := doJSON(t, "PUT", ts.URL+"/docs/doc1/views/bad", ViewRequest{Query: "A((("}, nil); s != http.StatusBadRequest {
		t.Fatalf("register of bad query: %d, want 400", s)
	}
	if s := doJSON(t, "PUT", ts.URL+"/docs/doc1/views/bad", ViewRequest{Query: "A $x", Syntax: "sql"}, nil); s != http.StatusBadRequest {
		t.Fatalf("register of bad syntax: %d, want 400", s)
	}

	// Drop, then 404.
	if s := doJSON(t, "DELETE", ts.URL+"/docs/doc1/views/bview", nil, nil); s != http.StatusOK {
		t.Fatalf("drop view: %d", s)
	}
	if s := doJSON(t, "DELETE", ts.URL+"/docs/doc1/views/bview", nil, nil); s != http.StatusNotFound {
		t.Fatalf("double drop: %d, want 404", s)
	}
}

func TestViewXPathSyntaxAndStats(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	status, body := do(t, "PUT", ts.URL+"/docs/doc1", sampleDocXML(t))
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	var resp ViewResponse
	if s := doJSON(t, "PUT", ts.URL+"/docs/doc1/views/xp", ViewRequest{Query: "/A/C/D", Syntax: "xpath"}, &resp); s != http.StatusCreated {
		t.Fatalf("register xpath view: %d", s)
	}
	if resp.Count != 1 {
		t.Fatalf("xpath view: %+v", resp)
	}

	// An unrelated insert is provably skippable; /stats must show the
	// skip and the registration's full recompute.
	if s := doJSON(t, "POST", ts.URL+"/docs/doc1/update", UpdateRequest{
		Query: "A $a", Confidence: 1, Ops: []UpdateOp{{Op: "insert", Var: "a", Tree: "Z:zed"}},
	}, nil); s != http.StatusOK {
		t.Fatalf("update: %d", s)
	}
	tier := func(m map[string]float64, tier string) float64 {
		return m[fmt.Sprintf("px_view_maintenance_total{tier=%q}", tier)]
	}
	m := serverStats(t, ts).Metrics
	if m["px_views_registered"] != 1 {
		t.Errorf("px_views_registered = %v, want 1", m["px_views_registered"])
	}
	if tier(m, "recompute") == 0 {
		t.Errorf("recompute tier = 0, want > 0")
	}
	if tier(m, "skip") == 0 {
		t.Errorf("skip tier = 0, want > 0 (unrelated insert)")
	}

	// A touching update must drive the incremental tier.
	if s := doJSON(t, "POST", ts.URL+"/docs/doc1/update", UpdateRequest{
		Query: "A(C $c)", Confidence: 0.9, Ops: []UpdateOp{{Op: "insert", Var: "c", Tree: "D:more"}},
	}, nil); s != http.StatusOK {
		t.Fatalf("touching update: %d", s)
	}
	if tier(serverStats(t, ts).Metrics, "incremental") == 0 {
		t.Errorf("incremental tier = 0, want > 0 (touching insert)")
	}

	// Unknown body fields are rejected like everywhere else.
	status, body = do(t, "PUT", ts.URL+"/docs/doc1/views/typo", []byte(`{"qerry":"A $x"}`))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
		t.Fatalf("typo'd field: %d %s", status, body)
	}
}
