package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/vfs"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
)

// metricValue fetches /metrics and returns the value of one exposition
// line by exact name (including any {label="..."} set), or 0 when the
// line is absent.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	status, body := do(t, "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

// slowDocXML builds a document whose queries are expensive: n sibling
// B leaves, each conditioned on its own event, so a match set carries n
// independent answers and Monte-Carlo estimation burns through
// samples × answers worlds.
func slowDocXML(t *testing.T, n int) []byte {
	t.Helper()
	var sb strings.Builder
	probs := make(map[event.ID]float64, n)
	sb.WriteString("A(")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		id := event.ID(fmt.Sprintf("w%03d", i))
		fmt.Fprintf(&sb, "B[%s]:v%d", id, i)
		probs[id] = 0.5
	}
	sb.WriteString(")")
	ft := fuzzy.MustParseTree(sb.String(), probs)
	data, err := xmlio.DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// slowQuery is an MC query over the slow document that runs for
// hundreds of milliseconds: 200 answers × 1e6 samples.
func slowQuery() QueryRequest {
	return QueryRequest{Query: "A(B $b)", Mode: "mc", Samples: 1_000_000}
}

// TestDegradedEndToEnd is the acceptance scenario of the degradation
// tentpole over HTTP: an injected fsync failure degrades the warehouse;
// writes answer 503 with Retry-After while reads keep serving; the
// readiness probe flips to 503 while liveness stays 200; clearing the
// fault and POST /admin/reopen restores full service.
func TestDegradedEndToEnd(t *testing.T) {
	inj := vfs.NewInjector()
	wh, err := warehouse.OpenFS(t.TempDir(), vfs.NewFaultFS(vfs.OS, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	ts := httptest.NewServer(New(wh, Options{}))
	t.Cleanup(ts.Close)

	if status, body := do(t, "PUT", ts.URL+"/docs/ex", sampleDocXML(t)); status != http.StatusCreated {
		t.Fatalf("PUT = %d, body %s", status, body)
	}
	update := UpdateRequest{
		Query:      "A $a",
		Confidence: 1,
		Ops:        []UpdateOp{{Op: "insert", Var: "a", Tree: "N"}},
	}

	// The op that hits the injected fsync failure reports the raw
	// storage error (500: the write may be torn, nothing friendlier to
	// say); every write after it gets the typed degraded rejection.
	inj.Set("journal.sync", vfs.Fault{Count: 1})
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/update", update, nil); status != http.StatusInternalServerError {
		t.Fatalf("update during fsync fault = %d, want 500", status)
	}
	if deg, reason := wh.Degraded(); !deg || !strings.Contains(reason, "journal") {
		t.Fatalf("Degraded() = %v, %q; want degraded with a journal reason", deg, reason)
	}

	req, err := http.NewRequest("POST", ts.URL+"/docs/ex/update", bytes.NewReader(mustJSON(t, update)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while degraded = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("degraded Retry-After = %q, want \"30\"", got)
	}

	// Reads keep serving from the in-memory state.
	if status, _ := do(t, "GET", ts.URL+"/docs/ex", nil); status != http.StatusOK {
		t.Errorf("GET doc while degraded = %d, want 200", status)
	}
	if status, _ := query(t, ts, "ex", QueryRequest{Query: "A(B $b)"}); status != http.StatusOK {
		t.Errorf("query while degraded = %d, want 200", status)
	}

	// Health checks: not-ready but alive; /stats and /metrics report it.
	if status, _ := do(t, "GET", ts.URL+"/readyz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz while degraded = %d, want 503", status)
	}
	if status, _ := do(t, "GET", ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("GET /healthz while degraded = %d, want 200", status)
	}
	if snap := serverStats(t, ts); !snap.Degraded {
		t.Errorf("/stats Degraded = false while degraded")
	}
	if v := metricValue(t, ts, "px_degraded"); v != 1 {
		t.Errorf("px_degraded = %v while degraded, want 1", v)
	}
	if v := metricValue(t, ts, "px_degraded_rejections_total"); v < 1 {
		t.Errorf("px_degraded_rejections_total = %v, want >= 1", v)
	}

	// Recovery: the fault healed itself (Count: 1); reopen replays the
	// journal and clears degraded mode.
	if status, body := do(t, "POST", ts.URL+"/admin/reopen", nil); status != http.StatusOK {
		t.Fatalf("POST /admin/reopen = %d, body %s", status, body)
	}
	if status, _ := do(t, "GET", ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Errorf("GET /readyz after reopen = %d, want 200", status)
	}
	if v := metricValue(t, ts, "px_degraded"); v != 0 {
		t.Errorf("px_degraded = %v after reopen, want 0", v)
	}
	if status := doJSON(t, "POST", ts.URL+"/docs/ex/update", update, nil); status != http.StatusOK {
		t.Errorf("update after reopen = %d, want 200", status)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClientDisconnectCancelsEvaluation: closing the client connection
// mid-evaluation must stop the engine (asserted via the disconnect
// cancellation counter — the 499 itself goes nowhere).
func TestClientDisconnectCancelsEvaluation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if status, body := do(t, "PUT", ts.URL+"/docs/slow", slowDocXML(t, 200)); status != http.StatusCreated {
		t.Fatalf("PUT = %d, body %s", status, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST",
		ts.URL+"/docs/slow/query", bytes.NewReader(mustJSON(t, slowQuery())))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// The evaluation finished before the cancel landed; the
			// counter check below will report it.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for {
		if metricValue(t, ts, `px_cancellations_total{reason="disconnect"}`) >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect cancellation counter never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestTimeout: with RequestTimeout set, a long evaluation is
// aborted and reported as a typed 503, counted separately from client
// disconnects.
func TestRequestTimeout(t *testing.T) {
	ts, _ := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	if status, body := do(t, "PUT", ts.URL+"/docs/slow", slowDocXML(t, 200)); status != http.StatusCreated {
		t.Fatalf("PUT = %d, body %s", status, body)
	}
	status, body := do(t, "POST", ts.URL+"/docs/slow/query", mustJSON(t, slowQuery()))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("slow query with 50ms timeout = %d, body %s; want 503", status, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Errorf("timeout body %q does not mention the timeout", body)
	}
	if v := metricValue(t, ts, `px_cancellations_total{reason="timeout"}`); v < 1 {
		t.Errorf("timeout cancellation counter = %v, want >= 1", v)
	}
}

// TestExemptRoutesServeWhileSaturated pins the satellite (f) bugfix:
// with every worker slot occupied, the observability routes must keep
// answering — they are exactly what an operator needs during overload.
// Saturation is deterministic: PUT requests with pipe bodies hold their
// in-flight slots inside io.ReadAll until the pipes close.
func TestExemptRoutesServeWhileSaturated(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxInFlight: 2})

	var pipes []*io.PipeWriter
	var dones []chan struct{}
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		pipes = append(pipes, pw)
		done := make(chan struct{})
		dones = append(dones, done)
		url := fmt.Sprintf("%s/docs/held%d", ts.URL, i)
		go func() {
			defer close(done)
			req, err := http.NewRequest("PUT", url, pr)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	t.Cleanup(func() {
		for _, pw := range pipes {
			pw.Close()
		}
		for _, done := range dones {
			<-done
		}
	})

	// Probe only once both PUTs are in their handlers: a probe that
	// holds a slot while a PUT arrives gets that PUT shed instead.
	deadline := time.Now().Add(5 * time.Second)
	for srv := ts.Config.Handler.(*Server); len(srv.inflight) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("held PUT requests never reached their handlers")
		}
		time.Sleep(time.Millisecond)
	}
	// Both slots are provably held: a plain read sheds 429.
	var sawRetryAfter string
	for {
		req, err := http.NewRequest("GET", ts.URL+"/docs", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			sawRetryAfter = resp.Header.Get("Retry-After")
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never saturated: GET /docs kept answering")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sawRetryAfter != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", sawRetryAfter)
	}

	// The exempt routes still answer while the cap is exhausted.
	for _, path := range []string{"/stats", "/metrics", "/healthz", "/readyz"} {
		if status, body := do(t, "GET", ts.URL+path, nil); status != http.StatusOK {
			t.Errorf("GET %s while saturated = %d, body %s; want 200", path, status, body)
		}
	}
	if v := metricValue(t, ts, "px_load_shed_total"); v < 1 {
		t.Errorf("px_load_shed_total = %v, want >= 1", v)
	}

	// Release the held slots; normal service resumes.
	for _, pw := range pipes {
		pw.Close()
	}
	for _, done := range dones {
		<-done
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if status, _ := do(t, "GET", ts.URL+"/docs", nil); status == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("GET /docs never recovered after releasing the slots")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
