package server

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/xmlio"
)

// searchDocXML serializes the library example: two conditioned books,
// one with an author.
func searchDocXML(t *testing.T) []byte {
	t.Helper()
	ft := fuzzy.MustParseTree(
		"lib(book[w1](title:kafka, author:max), shelf(book[w2](title:kafka)))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.5})
	data, err := xmlio.DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func search(t *testing.T, ts *httptest.Server, doc string, req SearchRequest) (int, SearchResponse) {
	t.Helper()
	var resp SearchResponse
	status := doJSON(t, "POST", ts.URL+"/docs/"+doc+"/search", req, &resp)
	return status, resp
}

func TestSearchRoute(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/lib", searchDocXML(t)); status != 201 {
		t.Fatalf("create: %d", status)
	}

	status, resp := search(t, ts, "lib", SearchRequest{Keywords: []string{"kafka"}})
	if status != 200 || resp.Count != 2 {
		t.Fatalf("search: %d %+v", status, resp)
	}
	if a := resp.Answers[0]; a.Path != "/lib/book/title" || math.Abs(a.P-0.8) > 1e-12 {
		t.Errorf("first answer = %+v", a)
	}

	// Case and punctuation variants tokenize to the same keyword.
	status, resp = search(t, ts, "lib", SearchRequest{Keywords: []string{"KAFKA!"}})
	if status != 200 || resp.Count != 2 {
		t.Fatalf("variant search: %d %+v", status, resp)
	}

	// ELCA mode with a threshold and a cut.
	status, resp = search(t, ts, "lib", SearchRequest{Keywords: []string{"kafka"}, Mode: "elca", MinProb: 0.6, TopK: 1})
	if status != 200 || resp.Count != 1 {
		t.Fatalf("elca search: %d %+v", status, resp)
	}
	if math.Abs(resp.Answers[0].P-0.8) > 1e-12 {
		t.Errorf("elca answer = %+v", resp.Answers[0])
	}
	if resp.Pruned == 0 {
		t.Errorf("expected threshold pruning at min_prob 0.6: %+v", resp)
	}

	// Monte-Carlo estimation.
	status, resp = search(t, ts, "lib", SearchRequest{Keywords: []string{"kafka"}, Prob: "mc", Samples: 20000})
	if status != 200 || resp.Count != 2 {
		t.Fatalf("mc search: %d %+v", status, resp)
	}
	if math.Abs(resp.Answers[0].P-0.8) > 0.02 {
		t.Errorf("mc estimate = %+v", resp.Answers[0])
	}
}

// TestSearchInvalidatedByUpdate is the acceptance check that mutating a
// document supersedes its inverted index, end to end through the HTTP
// API: one index build per version searched, however often it is
// searched.
func TestSearchInvalidatedByUpdate(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/lib", searchDocXML(t)); status != 201 {
		t.Fatal("create failed")
	}

	indexBuilds := func() float64 { return serverStats(t, ts).Metrics["px_keyword_index_builds_total"] }
	builds := indexBuilds()
	req := SearchRequest{Keywords: []string{"kafka"}}
	if _, resp := search(t, ts, "lib", req); resp.Count != 2 {
		t.Fatalf("initial search: %+v", resp)
	}
	if _, resp := search(t, ts, "lib", req); resp.Count != 2 {
		t.Fatalf("repeated search: %+v", resp)
	}
	if got := indexBuilds(); got != builds+1 {
		t.Fatalf("index builds = %v, want %v", got, builds+1)
	}

	// Insert a third node carrying the keyword.
	status := doJSON(t, "POST", ts.URL+"/docs/lib/update", UpdateRequest{
		Query:      "lib $l",
		Confidence: 1,
		Ops:        []UpdateOp{{Op: "insert", Var: "l", Tree: "note:kafka"}},
	}, nil)
	if status != 200 {
		t.Fatalf("update: %d", status)
	}

	_, resp := search(t, ts, "lib", req)
	if resp.Count != 3 {
		t.Errorf("post-update search = %+v, want the inserted note too", resp)
	}
	if got := indexBuilds(); got != builds+2 {
		t.Errorf("index builds = %v, want %v", got, builds+2)
	}
}

func TestSearchBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/lib", searchDocXML(t)); status != 201 {
		t.Fatal("create failed")
	}
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", `{"keywords":["kafka"],"minprob":0.5}`},
		{"trailing content", `{"keywords":["kafka"]} {"extra":true}`},
		{"no keywords", `{"keywords":[]}`},
		{"no tokens", `{"keywords":["!!!"]}`},
		{"bad mode", `{"keywords":["kafka"],"mode":"fancy"}`},
		{"bad prob", `{"keywords":["kafka"],"prob":"guess"}`},
		{"min_prob out of range", `{"keywords":["kafka"],"min_prob":1.5}`},
		{"negative top_k", `{"keywords":["kafka"],"top_k":-1}`},
		{"excessive samples", `{"keywords":["kafka"],"prob":"mc","samples":99000000}`},
	}
	for _, tc := range cases {
		status, body := do(t, "POST", ts.URL+"/docs/lib/search", []byte(tc.body))
		if status != 400 {
			t.Errorf("%s: status %d (%s), want 400", tc.name, status, body)
		}
	}
	if status, _ := do(t, "POST", ts.URL+"/docs/nope/search", []byte(`{"keywords":["kafka"]}`)); status != 404 {
		t.Errorf("missing document: %d, want 404", status)
	}
}

// TestUnknownFieldsRejectedEverywhere covers the query and update
// bodies too: a typo'd parameter must fail loudly, not run with
// defaults.
func TestUnknownFieldsRejectedEverywhere(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/lib", searchDocXML(t)); status != 201 {
		t.Fatal("create failed")
	}
	for route, body := range map[string]string{
		"query":  `{"query":"lib(book)","samlpes":10}`,
		"update": `{"query":"lib $l","confidnece":0.5}`,
	} {
		status, respBody := do(t, "POST", ts.URL+"/docs/lib/"+route, []byte(body))
		if status != 400 || !strings.Contains(string(respBody), "unknown field") {
			t.Errorf("%s: status %d body %s, want 400 unknown field", route, status, respBody)
		}
	}
}

func TestStatsSearchSection(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, _ := do(t, "PUT", ts.URL+"/docs/lib", searchDocXML(t)); status != 201 {
		t.Fatal("create failed")
	}
	req := SearchRequest{Keywords: []string{"kafka"}, MinProb: 0.9}
	if status, _ := search(t, ts, "lib", req); status != 200 {
		t.Fatal("search failed")
	}
	if status, _ := search(t, ts, "lib", req); status != 200 {
		t.Fatal("search failed")
	}

	m := serverStats(t, ts).Metrics
	if m["px_searches_total"] < 1 || m["px_keyword_index_builds_total"] < 1 {
		t.Errorf("search series missing builds/searches: %v", m)
	}
	if m["px_keyword_postings_total"] == 0 {
		t.Errorf("no postings counted: %v", m)
	}
	if m["px_keyword_threshold_prunes_total"] == 0 {
		t.Errorf("no threshold prunes counted at min_prob 0.9: %v", m)
	}
}
