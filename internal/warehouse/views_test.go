package warehouse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

func sections(m int) *fuzzy.Tree {
	root := fuzzy.NewNode("A")
	tab := event.NewTable()
	for i := 1; i <= m; i++ {
		id := event.ID(fmt.Sprintf("e%d", i))
		tab.MustSet(id, 0.5)
		root.Add(fuzzy.NewNode("S",
			fuzzy.NewLeaf("L", fmt.Sprintf("v%d", i)),
			fuzzy.NewLeaf("M", fmt.Sprintf("u%d", i)),
		).WithCond(event.Cond(event.Pos(id))))
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

func TestViewLifecycle(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", sections(3)); err != nil {
		t.Fatal(err)
	}
	res, err := w.RegisterView("doc1", "lview", "A(S(L $x))", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("register returned %d answers, want 3", len(res.Answers))
	}
	if _, err := w.RegisterView("doc1", "lview", "A(S(M $x))", ""); !errors.Is(err, ErrViewExists) {
		t.Fatalf("duplicate register: %v, want ErrViewExists", err)
	}
	if _, err := w.RegisterView("nodoc", "v", "A $x", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("register on missing doc: %v, want ErrNotFound", err)
	}
	if _, err := w.RegisterView("doc1", "bad", "A(((", ""); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := w.RegisterView("doc1", "badsyn", "A $x", "sparql"); err == nil {
		t.Fatal("unknown syntax accepted")
	}

	got, err := w.ReadView("doc1", "lview")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stale {
		t.Error("freshly registered view read as stale")
	}
	if len(got.Answers) != 3 {
		t.Fatalf("read returned %d answers, want 3", len(got.Answers))
	}
	if _, err := w.ReadView("doc1", "ghost"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("read of missing view: %v, want ErrViewNotFound", err)
	}

	defs, err := w.ListViews("doc1")
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 || defs[0].Name != "lview" {
		t.Fatalf("ListViews = %+v", defs)
	}

	if err := w.DropView("doc1", "lview"); err != nil {
		t.Fatal(err)
	}
	if err := w.DropView("doc1", "lview"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("double drop: %v, want ErrViewNotFound", err)
	}
	if _, err := w.ReadView("doc1", "lview"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("read after drop: %v, want ErrViewNotFound", err)
	}
}

// assertViewFresh compares a ReadView result against recomputing the
// view's query from scratch on the document's current content.
func assertViewFresh(t *testing.T, w *Warehouse, doc, name string) {
	t.Helper()
	res, err := w.ReadView(doc, name)
	if err != nil {
		t.Fatalf("ReadView(%q, %q): %v", doc, name, err)
	}
	ft, err := w.Get(doc)
	if err != nil {
		t.Fatal(err)
	}
	var q *tpwj.Query
	switch res.Syntax {
	case "", "tpwj":
		q = tpwj.MustParseQuery(res.Query)
	default:
		t.Fatalf("unexpected syntax %q", res.Syntax)
	}
	want, err := tpwj.EvalFuzzy(q, ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("view %q on %q: %d answers, recompute has %d", name, doc, len(res.Answers), len(want))
	}
	for i := range want {
		wc, gc := tree.Canonical(want[i].Tree), tree.Canonical(res.Answers[i].Tree)
		if wc != gc {
			t.Fatalf("view %q on %q answer %d: tree %s, recompute %s", name, doc, i, gc, wc)
		}
		if math.Abs(want[i].P-res.Answers[i].P) > 1e-9 {
			t.Fatalf("view %q on %q answer %d (%s): P=%v, recompute P=%v",
				name, doc, i, gc, res.Answers[i].P, want[i].P)
		}
	}
}

func TestViewMaintainedAcrossUpdateSimplifyAndXPath(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", sections(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "ls", "A(S(L $x))", "tpwj"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "xp", "/A/S/M", "xpath"); err != nil {
		t.Fatal(err)
	}

	tx := update.New(tpwj.MustParseQuery("A(S $s(L=v2))"), 0.8, update.Insert("s", tree.MustParse("L:fresh")))
	if _, err := w.Update("doc1", tx); err != nil {
		t.Fatal(err)
	}
	assertViewFresh(t, w, "doc1", "ls")

	tx2 := update.New(tpwj.MustParseQuery("A(S(M=u3 $m))"), 0.6, update.Delete("m"))
	if _, err := w.Update("doc1", tx2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Simplify("doc1"); err != nil {
		t.Fatal(err)
	}
	assertViewFresh(t, w, "doc1", "ls")

	m := obs.Snapshot(w.Registry()).WithPrefix("px_view")
	if m["px_views_registered"] != 2 {
		t.Errorf("px_views_registered = %v, want 2", m["px_views_registered"])
	}
	if m[tierSkip]+m[tierIncremental] == 0 {
		t.Errorf("no cheap maintenance tier taken: %v", m)
	}
	if m[tierRecompute] == 0 {
		t.Errorf("simplify should force full recomputes: %v", m)
	}
	// The xpath view compares through its own engine; check count only.
	xp, err := w.ReadView("doc1", "xp")
	if err != nil {
		t.Fatal(err)
	}
	if len(xp.Answers) == 0 {
		t.Error("xpath view lost its answers")
	}
}

func TestViewsSurviveReopenAndCompact(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc1", sections(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "v1", "A(S(L $x))", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "gone", "A(S(M $x))", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.DropView("doc1", "gone"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: definitions come back from the journal; answers are
	// re-materialized lazily.
	w, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadView("doc1", "gone"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("dropped view resurrected: %v", err)
	}
	assertViewFresh(t, w, "doc1", "v1")

	// Compact moves the registry to views.json; register one more view
	// after the compact so both sources are live on the next open.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "v2", "A(S $s)", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defs, err := w.ListViews("doc1")
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 || defs[0].Name != "v1" || defs[1].Name != "v2" {
		t.Fatalf("ListViews after compact+reopen = %+v", defs)
	}
	assertViewFresh(t, w, "doc1", "v1")
	assertViewFresh(t, w, "doc1", "v2")
}

func TestDocDropRemovesViews(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc1", sections(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "v1", "A(S $s)", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Drop("doc1"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadView("doc1", "v1"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("view outlived its document: %v", err)
	}
	// Re-creating the name must not resurrect the old view — including
	// after a reopen, where the journal replay must apply the drop.
	if err := w.Create("doc1", sections(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadView("doc1", "v1"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("view resurrected by re-create: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.ReadView("doc1", "v1"); !errors.Is(err, ErrViewNotFound) {
		t.Fatalf("view resurrected by reopen: %v", err)
	}
}

// copyWarehouseDir snapshots a (possibly still open) warehouse
// directory, simulating what a crash leaves on disk.
func copyWarehouseDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// randomViewTx builds a random applicable transaction for the doc.
func randomViewTx(r *rand.Rand, ft *fuzzy.Tree) *update.Transaction {
	doc := ft.Underlying()
	q := gen.MatchingQuery(r, doc, true)
	conf := 0.3 + 0.7*r.Float64()
	if r.Intn(4) == 0 {
		conf = 1
	}
	if r.Intn(2) == 0 {
		sub := gen.Tree(r, gen.TreeConfig{Depth: 2, MaxFanout: 2})
		return update.New(q, conf, update.Insert("x", sub))
	}
	return update.New(q, conf, update.Delete("x"))
}

// TestViewDifferentialRandomized is the acceptance oracle: randomized
// update sequences over multiple documents with registered views;
// after every step each view must equal recompute-from-scratch, and
// views must survive crash/recovery cycles taken mid-sequence.
func TestViewDifferentialRandomized(t *testing.T) {
	steps := 1000
	if testing.Short() {
		steps = 120
	}
	r := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()

	docs := []string{"alpha", "beta", "gamma"}
	for i, name := range docs {
		ft := gen.Fuzzy(r, gen.FuzzyConfig{
			Tree:        gen.TreeConfig{Depth: 3, MaxFanout: 3},
			Events:      4,
			EventPrefix: fmt.Sprintf("w%d_", i),
		})
		if err := w.Create(name, ft); err != nil {
			t.Fatal(err)
		}
		ftq, err := w.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2; v++ {
			q := gen.MatchingQuery(r, ftq.Underlying(), true)
			vname := fmt.Sprintf("v%d", v)
			if _, err := w.RegisterView(name, vname, tpwj.FormatQuery(q), ""); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := make(map[string]float64)
	accumulate := func() {
		for k, v := range obs.Snapshot(w.Registry()).WithPrefix("px_view_maintenance_total") {
			total[k] += v
		}
	}
	for step := 0; step < steps; step++ {
		name := docs[r.Intn(len(docs))]
		cur, err := w.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Size() > 300 {
			// Deletion blow-up: trim the document back down by
			// simplifying (views must survive that too).
			if _, err := w.Simplify(name); err != nil {
				t.Fatalf("step %d: simplify: %v", step, err)
			}
			cur, err = w.Get(name)
			if err != nil {
				t.Fatal(err)
			}
		}
		// Draw until the transaction applies (inserts under value
		// leaves and root deletions are rejected by the updater).
		for tries := 0; ; tries++ {
			tx := randomViewTx(r, cur)
			_, err = w.Update(name, tx)
			if err == nil {
				break
			}
			if tries > 100 {
				t.Fatalf("step %d: no applicable transaction: %v", step, err)
			}
		}
		assertViewFresh(t, w, name, fmt.Sprintf("v%d", r.Intn(2)))

		// Periodically simulate a crash: snapshot the live directory,
		// recover the copy, and check every view over there.
		if step%250 == 120 {
			crashDir := copyWarehouseDir(t, dir)
			cw, err := Open(crashDir)
			if err != nil {
				t.Fatalf("step %d: crash recovery: %v", step, err)
			}
			for _, doc := range docs {
				defs, err := cw.ListViews(doc)
				if err != nil {
					t.Fatalf("step %d: crash copy lost views of %q: %v", step, doc, err)
				}
				if len(defs) != 2 {
					t.Fatalf("step %d: crash copy has %d views of %q, want 2", step, len(defs), doc)
				}
				for _, def := range defs {
					assertViewFresh(t, cw, doc, def.Name)
				}
			}
			cw.Close()
		}

		// And a clean close/reopen with an occasional compact.
		// Counters are per-instance; fold them into the running total
		// before the instance goes away.
		if step%250 == 249 {
			accumulate()
			if step%500 == 499 {
				if err := w.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range docs {
				assertViewFresh(t, w, doc, "v0")
				assertViewFresh(t, w, doc, "v1")
			}
		}
	}
	accumulate()
	t.Logf("view maintenance after %d steps: %v", steps, total)
	if total[tierSkip] == 0 || total[tierIncremental] == 0 || total[tierRecompute] == 0 {
		t.Errorf("expected all three maintenance tiers to fire: %+v", total)
	}
}

// The maintenance-tier series of the warehouse registry.
const (
	tierSkip        = `px_view_maintenance_total{tier="skip"}`
	tierIncremental = `px_view_maintenance_total{tier="incremental"}`
	tierRecompute   = `px_view_maintenance_total{tier="recompute"}`
)

// renderView renders a view read's answers exactly: canonical trees
// and probabilities.
func renderView(res *ViewResult) string {
	var b strings.Builder
	for _, a := range res.Answers {
		fmt.Fprintf(&b, "%s=%v ", tree.Canonical(a.Tree), a.P)
	}
	return b.String()
}

// TestViewReadsDoNotBlockOnWriter pins the view read contract under
// concurrency: while a writer churns, readers never get an error or a
// stale read, and every read returns exactly the answers of a version
// the writer published.
func TestViewReadsDoNotBlockOnWriter(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", sections(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "ls", "A(S(L $x))", ""); err != nil {
		t.Fatal(err)
	}
	// published is written by the single writer only, before and after
	// each of its updates, and read once the readers are done.
	published := make(map[string]bool)
	record := func() {
		res, err := w.ReadView("doc1", "ls")
		if err != nil {
			t.Fatal(err)
		}
		published[renderView(res)] = true
	}
	record()

	const readers = 4
	observed := make([][]string, readers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := w.ReadView("doc1", "ls")
				if err != nil {
					t.Errorf("ReadView: %v", err)
					return
				}
				if res.Stale {
					t.Error("ReadView returned a stale read")
					return
				}
				observed[g] = append(observed[g], renderView(res))
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		tx := update.New(tpwj.MustParseQuery("A(S $s(L=v1))"), 0.9,
			update.Insert("s", tree.MustParse("L:extra")))
		if _, err := w.Update("doc1", tx); err != nil {
			t.Fatal(err)
		}
		record()
	}
	close(done)
	wg.Wait()
	for g, reads := range observed {
		for _, got := range reads {
			if !published[got] {
				t.Fatalf("reader %d read answers no published version has:\n  %s", g, got)
			}
		}
	}
	assertViewFresh(t, w, "doc1", "ls")
}

// TestCancelledUpdateLeavesViewToFirstReader pins what a cancelled
// context does to an update: the update still commits, its view
// maintenance is cut short, and the first read of the new version
// materializes the view there, charging exactly one recompute.
func TestCancelledUpdateLeavesViewToFirstReader(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", sections(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc1", "ls", "A(S(L $x))", ""); err != nil {
		t.Fatal(err)
	}
	h, _ := w.views.get("doc1", "ls")
	pre, err := w.Snapshot(context.Background(), "doc1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tx := update.New(tpwj.MustParseQuery("A(S $s(L=v1))"), 0.9,
		update.Insert("s", tree.MustParse("L:extra")))
	if _, err := w.UpdateCtx(ctx, "doc1", tx); err != nil {
		t.Fatalf("update with a cancelled context: %v", err)
	}
	next, err := w.Snapshot(context.Background(), "doc1")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() <= pre.Version() {
		t.Fatalf("update did not publish a version: %d after %d", next.Version(), pre.Version())
	}
	if _, ok := next.viewState(h); ok {
		t.Fatal("cancelled maintenance left a view state on the new version")
	}

	cost := obs.NewCost()
	before := w.views.full.Value()
	if _, err := w.ReadViewCtx(obs.ContextWithCost(context.Background(), cost), "doc1", "ls"); err != nil {
		t.Fatal(err)
	}
	if got := w.views.full.Value() - before; got != 1 {
		t.Errorf("first read counted %d recomputes, want 1", got)
	}
	if got := cost.Value(obs.CostViewMaintRecomputed); got != 1 {
		t.Errorf("first read charged %d recomputes, want 1", got)
	}
	if _, ok := next.viewState(h); !ok {
		t.Error("first read did not materialize the view on the new version")
	}
	assertViewFresh(t, w, "doc1", "ls")
	if got := w.views.full.Value() - before; got != 1 {
		t.Errorf("a second read recomputed again: %d recomputes, want 1", got)
	}
}

// TestRegisterDropChurnLeavesOneViewState pins that DropView deletes
// the view's state from the current snapshot: registering and dropping
// one name over and over on an unchanged document leaves at most the
// live registration's state behind.
func TestRegisterDropChurnLeavesOneViewState(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", sections(4)); err != nil {
		t.Fatal(err)
	}
	s, err := w.Snapshot(context.Background(), "doc1")
	if err != nil {
		t.Fatal(err)
	}
	states := func() int {
		s.viewsMu.Lock()
		defer s.viewsMu.Unlock()
		return len(s.views)
	}
	for i := 0; i < 100; i++ {
		if _, err := w.RegisterView("doc1", "v", "A(S(L $x))", ""); err != nil {
			t.Fatal(err)
		}
		if n := states(); n != 1 {
			t.Fatalf("round %d: %d view states after register, want 1", i, n)
		}
		if err := w.DropView("doc1", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if cur, err := w.Snapshot(context.Background(), "doc1"); err != nil || cur != s {
		t.Fatalf("the document changed version under view churn (err %v)", err)
	}
	if n := states(); n != 0 {
		t.Errorf("%d view states left after every view was dropped, want 0", n)
	}
}
