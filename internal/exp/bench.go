package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/filestore"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
)

// This file backs pxbench's machine-readable output (-json): a fixed
// set of named probes measured with testing.Benchmark, serialized as
// BENCH_<date>.json so the performance trajectory of the hot paths can
// be tracked across PRs. The probe shapes deliberately mirror the
// repository-root testing.B benchmarks (bench_test.go) so the two
// views stay comparable.

// Probe is one named micro-benchmark.
type Probe struct {
	Name string
	Run  func(b *testing.B)
}

// AblationDNF builds the ablation workload of BenchmarkAblationProbDNF:
// m events and m random two-literal clauses over them.
func AblationDNF(m int) (*event.Table, event.DNF) {
	tab := event.NewTable()
	r := rand.New(rand.NewSource(int64(m)))
	ids := make([]event.ID, 0, m)
	for i := 0; i < m; i++ {
		id, _ := tab.Fresh("e", 0.1+0.8*r.Float64())
		ids = append(ids, id)
	}
	var d event.DNF
	for i := 0; i < m; i++ {
		c := event.Cond(
			event.Literal{Event: ids[r.Intn(m)], Neg: r.Intn(2) == 0},
			event.Literal{Event: ids[r.Intn(m)], Neg: r.Intn(2) == 0},
		)
		d = append(d, c.Normalize())
	}
	return tab, d
}

// Probes returns the probe set: the exact probability engine against
// its brute-force oracle, Monte-Carlo estimation, the keyword-search
// engine (warm and cold index, both semantics), and the end-to-end
// fuzzy query and update paths that sit on top of them.
func Probes() []Probe {
	return []Probe{
		{"probdnf/exact/events=14", func(b *testing.B) {
			tab, d := AblationDNF(14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNF(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"probdnf/brute/events=14", func(b *testing.B) {
			tab, d := AblationDNF(14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNFBrute(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"probdnf/estimate/events=14/samples=10000", func(b *testing.B) {
			tab, d := AblationDNF(14)
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.EstimateDNF(d, 10000, r); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"search/slca/warm/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			ix := keyword.NewIndex(ft)
			req := keyword.Request{Keywords: []string{"l", "m"}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := keyword.Search(ix, req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"search/slca/cold/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			req := keyword.Request{Keywords: []string{"l", "m"}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := keyword.Search(keyword.NewIndex(ft), req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"search/elca/warm/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			ix := keyword.NewIndex(ft)
			req := keyword.Request{Keywords: []string{"l", "m"}, Mode: keyword.ELCA}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := keyword.Search(ix, req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"view/maintain/skip/sections=32", func(b *testing.B) {
			v, next, d := viewMaintenanceInstance(32, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Maintain(next, d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"view/maintain/incremental/sections=32", func(b *testing.B) {
			v, next, d := viewMaintenanceInstance(32, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Maintain(next, d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"view/maintain/recompute/sections=32", func(b *testing.B) {
			v, next, _ := viewMaintenanceInstance(32, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := view.Materialize(v.Def(), v.Query(), next); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"query/fuzzy/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			q := tpwj.MustParseQuery("A(//L $x)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tpwj.EvalFuzzy(q, ft); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/overhead/off/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			q := tpwj.MustParseQuery("A(//L $x)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tpwj.EvalFuzzyContext(context.Background(), q, ft); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/overhead/on/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			q := tpwj.MustParseQuery("A(//L $x)")
			record := obsStageRecorder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := obsTracedEval(q, ft, record); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/explain/off/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			q := tpwj.MustParseQuery("A(//L $x)")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tpwj.EvalFuzzyContext(ctx, q, ft); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"obs/explain/on/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			q := tpwj.MustParseQuery("A(//L $x)")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tpwj.EvalFuzzyContext(obs.ContextWithCost(ctx, obs.NewCost()), q, ft); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"fault/overhead/off/events=14", func(b *testing.B) {
			tab, d := AblationDNF(14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNF(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"fault/overhead/on/events=14", func(b *testing.B) {
			tab, d := AblationDNF(14)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNFCtx(ctx, d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"expand/worlds/events=12", func(b *testing.B) {
			ft := SectionDoc(12)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ft.Expand(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"store/filestore/append", func(b *testing.B) { benchStoreAppend(b, "filestore") }},
		{"store/kv/append", func(b *testing.B) { benchStoreAppend(b, "kv") }},
		{"store/filestore/recover", func(b *testing.B) { benchStoreRecover(b, "filestore") }},
		{"store/kv/recover", func(b *testing.B) { benchStoreRecover(b, "kv") }},
	}
}

// benchStoreNew builds one storage backend on the real filesystem —
// the store probes measure each backend's own framing, buffering and
// fsync behaviour, so a fake filesystem would defeat the point.
func benchStoreNew(backend, dir string) store.Store {
	if backend == "kv" {
		return kv.New(dir, vfs.OS)
	}
	return filestore.New(dir, vfs.OS)
}

// benchStoreDirSeq makes every probe invocation set up in a fresh
// directory: testing.Benchmark reruns the probe body with growing b.N
// against the same per-B temp dir, and reusing a directory would let
// one invocation's journal leak into the next invocation's setup.
var benchStoreDirSeq atomic.Int64

func benchStoreDir(b *testing.B) string {
	return filepath.Join(b.TempDir(), fmt.Sprintf("wh%d", benchStoreDirSeq.Add(1)))
}

// benchStoreAppend measures a backend's journal append path:
// Append+Flush per record with an fsync every 16 records, matching the
// warehouse's group-commit cadence (many writers share one Sync).
func benchStoreAppend(b *testing.B, backend string) {
	st := benchStoreNew(backend, benchStoreDir(b))
	_, lg, err := st.Open(json.Valid)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // benchmark teardown
	defer lg.Close() //nolint:errcheck // benchmark teardown
	payload := []byte(`{"seq":1,"op":"update","doc":"bench","tx":"<insert/>","content":"<doc><a>payload</a></doc>"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lg.Append(payload); err != nil {
			b.Fatal(err)
		}
		if err := lg.Flush(); err != nil {
			b.Fatal(err)
		}
		if (i+1)%16 == 0 {
			if err := lg.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStoreRecover measures a backend's full recovery scan: Open on a
// directory holding 512 journal records and 8 documents. json.Valid
// stands in for the warehouse's record validator — the scanners only
// use it to tell a torn tail from a clean end.
func benchStoreRecover(b *testing.B, backend string) {
	st := benchStoreNew(backend, benchStoreDir(b))
	_, lg, err := st.Open(json.Valid)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // benchmark teardown
	const records = 512
	for i := 0; i < records; i++ {
		p := fmt.Sprintf(`{"seq":%d,"op":"update","doc":"d%d","content":"<doc><a>%d</a></doc>"}`, i+1, i%8, i)
		if err := lg.Append([]byte(p)); err != nil {
			b.Fatal(err)
		}
	}
	if err := lg.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.WriteDoc(fmt.Sprintf("d%d", i), []byte("<doc><a>seed</a></doc>"), true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloads, relg, err := st.Open(json.Valid)
		if err != nil {
			b.Fatal(err)
		}
		if len(payloads) != records {
			b.Fatalf("recovered %d records, want %d", len(payloads), records)
		}
		if err := relg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// obsStageRecorder models the server's trace onEnd hook: finished
// spans feed per-stage histograms on a live registry, with the handle
// cached after the first lookup (the benchmarks are single-goroutine,
// so a plain map stands in for the server's sync.Map).
func obsStageRecorder() func(name string, d time.Duration) {
	reg := obs.NewRegistry()
	hists := make(map[string]*obs.Histogram)
	return func(name string, d time.Duration) {
		h, ok := hists[name]
		if !ok {
			h = reg.Histogram("px_stage_seconds", "pipeline stage latency", obs.L("stage", name))
			hists[name] = h
		}
		h.Observe(d)
	}
}

// obsTracedEval runs one fully instrumented query evaluation: a fresh
// trace per call (as the server's middleware does per request), the
// eval recording its pipeline spans into it, each finished span
// feeding a histogram. The obs/overhead probe pair compares this
// against the identical eval on a context without a trace — the no-op
// instrumentation path.
func obsTracedEval(q *tpwj.Query, ft *fuzzy.Tree, record func(string, time.Duration)) error {
	_, root := obs.NewTrace("bench", record)
	ctx := obs.ContextWithSpan(context.Background(), root)
	_, err := tpwj.EvalFuzzyContext(ctx, q, ft)
	root.End()
	return err
}

// viewBenchDoc builds the view-maintenance workload document: m
// sections, each holding one distinct L value witnessed under k
// differently-conditioned G nodes (lits literals each, over a
// per-section pool of ev events). The view "A(S(G(L $x)))" then has m
// answers whose condition DNFs have k lits-literal clauses over up to
// ev events — condition structure heavy enough that exact probability
// computation dominates matching, i.e. the workload where materialized
// views earn their keep.
func viewBenchDoc(m, k, lits, ev int) *fuzzy.Tree {
	root := fuzzy.NewNode("A")
	tab := event.NewTable()
	r := rand.New(rand.NewSource(42))
	for i := 1; i <= m; i++ {
		ids := make([]event.ID, ev)
		for j := range ids {
			id, err := tab.Fresh("e", 0.2+0.6*r.Float64())
			if err != nil {
				panic(err)
			}
			ids[j] = id
		}
		sec := fuzzy.NewNode("S")
		for w := 0; w < k; w++ {
			var c event.Condition
			for l := 0; l < lits; l++ {
				c = append(c, event.Literal{Event: ids[r.Intn(ev)], Neg: r.Intn(2) == 0})
			}
			sec.Add(fuzzy.NewNode("G",
				fuzzy.NewLeaf("L", fmt.Sprintf("v%d", i)),
			).WithCond(c))
		}
		root.Add(sec)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// viewMaintenanceInstance builds the view-maintenance workload: a view
// over viewBenchDoc(m, 14, 6, 60), materialized, plus the post-state
// of one update and its footprint. With touching, the update inserts a
// fresh G(L) witness under one section — affecting one of the m
// answers, the shape where incremental maintenance should beat
// recomputing all m answer probabilities. Without, it inserts an
// unrelated label, which the overlap analysis proves harmless (the
// skip tier).
func viewMaintenanceInstance(m int, touching bool) (*view.View, *fuzzy.Tree, *view.Delta) {
	ft := viewBenchDoc(m, 14, 6, 60)
	def := view.Definition{Name: "bench", Query: "A(S(G(L $x)))"}
	q, err := def.Compile()
	if err != nil {
		panic(err)
	}
	v, err := view.Materialize(def, q, ft)
	if err != nil {
		panic(err)
	}
	var tx *update.Transaction
	if touching {
		tx = update.New(tpwj.MustParseQuery("A(S $s(G(L=v1)))"), 0.9,
			update.Insert("s", tree.MustParse("G(L:extra)")))
	} else {
		tx = update.New(tpwj.MustParseQuery("A $a"), 0.9,
			update.Insert("a", tree.MustParse("Z:zed")))
	}
	next, stats, err := tx.ApplyFuzzy(ft)
	if err != nil {
		panic(err)
	}
	return v, next, &view.Delta{
		InsertedLabels:    stats.InsertedLabels,
		DeleteTargetPaths: stats.DeleteTargetPaths,
	}
}

// BenchResult is one probe's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ExperimentResult is one experiment's pass/fail status.
type ExperimentResult struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
}

// BenchReport is the BENCH_<date>.json document (see README, section
// "Benchmark tracking").
type BenchReport struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// Engine holds the px_engine_* counters the probes accumulated,
	// keyed by series as /stats reports them.
	Engine      map[string]float64 `json:"engine_counters"`
	Benchmarks  []BenchResult      `json:"benchmarks"`
	Experiments []ExperimentResult `json:"experiments,omitempty"`
}

// RunProbes measures every probe with testing.Benchmark and returns the
// report skeleton (Date and Experiments are filled by the caller). The
// engine counters accumulated while probing are included, giving a
// coarse view of memo and component behavior alongside the timings.
func RunProbes(date string) BenchReport {
	engine := func() map[string]float64 { return obs.Snapshot(obs.Default()).WithPrefix("px_engine_") }
	before := engine()
	rep := BenchReport{Date: date, GoVersion: runtime.Version()}
	for _, p := range Probes() {
		res := testing.Benchmark(p.Run)
		rep.Benchmarks = append(rep.Benchmarks, BenchResult{
			Name:        p.Name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	rep.Engine = engine()
	for k := range rep.Engine {
		rep.Engine[k] -= before[k]
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("exp: encoding bench report: %w", err)
	}
	return nil
}
