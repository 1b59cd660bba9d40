package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	fuzzyxml "repro"
)

// smokeScale is the size the smoke tests run at: 1/50 of every op
// count and document count.
const smokeScale = 0.02

func smokeConfig(t *testing.T, w *workload, seed int64) runConfig {
	return runConfig{W: w, Seed: seed, Seconds: 10, Scale: smokeScale, Backend: "auto", Dir: t.TempDir(), TraceDir: t.TempDir()}
}

// TestSmoke runs every workload end to end and traced at 1/50 size and
// requires exactly the metrics BENCHMARK.json names, each with its
// unit.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bf.Workloads[i].Name, w.Name)
		}
		cfg := smokeConfig(t, w, 1)
		for _, mode := range []struct {
			run   func(runConfig) (*runRecord, error)
			specs []metricSpec
		}{{runEndToEnd, bf.EndToEnd}, {runTraced, bf.PerLayer}} {
			rec, err := mode.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !rec.correct() || rec.Attempted < 1 || rec.Checks < 1 {
				t.Errorf("%s: attempted %d failed %d checks %d mismatches %d: %v", w.Name, rec.Attempted, rec.Failed, rec.Checks, rec.Mismatches, rec.Notes)
			}
			if len(rec.Metrics) != len(mode.specs) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", w.Name, rec.Trace, len(rec.Metrics), len(mode.specs))
			}
			for _, spec := range mode.specs {
				m, ok := rec.Metrics[spec.Name]
				if !ok || m.Unit != spec.Unit {
					t.Errorf("%s: metric %s: emitted %v with unit %q, want unit %q", w.Name, spec.Name, ok, m.Unit, spec.Unit)
				}
				if !rec.Trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.Name, spec.Name, m.Value)
				}
			}
		}
	}
}

func streamBytes(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteString(o.Method + " " + o.Path + " ")
		b.Write(o.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestDeterminism: equal seeds give byte-identical op streams and final
// fingerprints; seeds 1 and 2 differ in both.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := streamBytes(newGenerator(1, w).ops(300))
		if !bytes.Equal(a, streamBytes(newGenerator(1, w).ops(300))) {
			t.Errorf("%s: op stream differs between two generations with seed 1", w.Name)
		}
		if bytes.Equal(a, streamBytes(newGenerator(2, w).ops(300))) {
			t.Errorf("%s: op stream is the same for seeds 1 and 2", w.Name)
		}
	}
	w := findWorkload("mixed_serving")
	fp := func(seed int64) string {
		rec, err := runEndToEnd(smokeConfig(t, w, seed))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Fingerprint
	}
	one := fp(1)
	if again := fp(1); again != one {
		t.Errorf("final fingerprint differs between two runs with seed 1: %s vs %s", one, again)
	}
	if two := fp(2); two == one {
		t.Errorf("final fingerprint is the same for seeds 1 and 2: %s", one)
	}
}

// TestOpenLoopChargesStall: the first request stalls 50 ms in the
// handler; the next op of the same client was due 10 ms in, so it must
// report at least the rest of the stall as latency, measured from its
// scheduled time and not from when it was finally sent.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL)
	defer lg.close()
	ops := make([]op, 8)
	for i := range ops {
		ops[i] = op{Kind: kindGet, Method: "GET", Path: "/x"}
	}
	const rate = 200 // one op every 5 ms, every 10 ms per client
	res := lg.open(ops, rate)
	if res.failed() != 0 {
		t.Fatalf("%d ops failed", res.failed())
	}
	stalled := 0
	if res.Samples[1].Latency > res.Samples[0].Latency {
		stalled = 1 // the stall hit client 1's first op
	}
	behind := res.Samples[stalled+clients]
	due := time.Duration(stalled+clients) * time.Second / rate
	if want := stall - due; behind.Latency < want || behind.Late < want-5*time.Millisecond {
		t.Errorf("op queued behind a %v stall and due at %v reports latency %v, late %v; want at least %v", stall, due, behind.Latency, behind.Late, want)
	}
	if res.BacklogMax < 2 {
		t.Errorf("backlog_max = %d, want at least 2 ops queued behind the stall", res.BacklogMax)
	}
}

// TestCheckerCatchesDroppedUpdate: a server that acknowledges one
// update without applying it must fail the output check; the honest
// server passes it.
func TestCheckerCatchesDroppedUpdate(t *testing.T) {
	w := findWorkload("update_durable").scaled(smokeScale)
	for _, drop := range []bool{false, true} {
		sd, m, err := newSeedData(1, w)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := fuzzyxml.OpenWarehouseBackend(t.TempDir(), "auto")
		if err != nil {
			t.Fatal(err)
		}
		api := fuzzyxml.NewServer(wh, fuzzyxml.ServerOptions{})
		// The dropped update inserts with confidence 0.8, so it mints an
		// event: nothing a later op does can hide its absence.
		var dropped atomic.Bool
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			if drop && bytes.Contains(body, []byte(`"confidence":0.8,"ops":[{"op":"insert"`)) && dropped.CompareAndSwap(false, true) {
				rw.WriteHeader(http.StatusOK) // acknowledged, never applied
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			api.ServeHTTP(rw, r)
		}))
		lg := newLoadgen(srv.URL)
		if err := sd.load(lg); err != nil {
			t.Fatal(err)
		}
		ops := newGenerator(1, w).ops(40)
		res := lg.closed(ops)
		if res.failed() != 0 {
			t.Fatalf("%d ops failed", res.failed())
		}
		if err := m.replay(ops, res); err != nil {
			t.Fatal(err)
		}
		want, err := m.hashes()
		if err != nil {
			t.Fatal(err)
		}
		var ck checker
		ck.checkDocs(lg.conns[0], want)
		if drop && ck.Mismatches == 0 {
			t.Error("the checker passed a server that dropped an acknowledged update")
		}
		if !drop && ck.Mismatches != 0 {
			t.Errorf("the checker failed an honest server: %v", ck.Notes)
		}
		lg.close()
		srv.Close()
		if err := wh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := summarize([]float64{99, 100, 101})
	for _, tc := range []struct {
		spec metricSpec
		a, b summary
		want string
	}{
		{lower, steady, summarize([]float64{100, 100, 100}), "same"},
		{lower, steady, summarize([]float64{111, 112, 113}), "worse"},
		{lower, steady, summarize([]float64{90, 91, 92}), "better"},
		{higher, steady, summarize([]float64{80, 81, 82}), "worse"},
		{higher, steady, summarize([]float64{120, 121, 122}), "better"},
		{lower, summarize([]float64{80, 100, 120}), summarize([]float64{150, 150, 150}), "unresolved"},
	} {
		if got := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.spec.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
