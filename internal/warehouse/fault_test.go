package warehouse

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/xmlio"
)

// faultState is one state of the sweep workload's documents and views.
type faultState struct {
	docs  map[string]string   // name -> serialized content; absent = must not exist
	views map[string][]string // doc -> registered view names
}

// faultModel is the oracle of the fault sweep: the state acknowledged
// to the workload, computed by the model itself from the operations
// that returned nil. After a fault plus recovery the warehouse must
// match it exactly — a failed mutation may not leave any visible
// trace, and a successful one may not lose its effect — with the one
// exception the contract names: the mutation during which the journal
// itself failed may have happened or not, so for it the model also
// keeps the state it was going for (post) and recovery may land on
// either, whole. It is the operation-level counterpart of expectState
// (recovery_test.go), which predicts the same state from the journal
// bytes.
type faultModel struct {
	faultState
	post *faultState
}

func newFaultModel() *faultModel {
	return &faultModel{faultState: faultState{docs: make(map[string]string), views: make(map[string][]string)}}
}

func (s *faultState) clone() *faultState {
	c := &faultState{docs: make(map[string]string), views: make(map[string][]string)}
	for k, v := range s.docs {
		c.docs[k] = v
	}
	for k, v := range s.views {
		c.views[k] = append([]string(nil), v...)
	}
	return c
}

// attempt runs one mutation and folds its effect into the model: into
// the acknowledged state when it returned nil, into the indeterminate
// bucket when it is the call that took the journal down (the warehouse
// degraded during it, for a journal write, flush or fsync failure), and
// nowhere otherwise.
func (m *faultModel) attempt(t *testing.T, w *Warehouse, run func() error, effect func(s *faultState)) {
	t.Helper()
	before, _ := w.Degraded()
	err := run()
	after, reason := w.Degraded()
	switch {
	case err == nil:
		effect(&m.faultState)
	case !before && after && strings.HasPrefix(reason, "journal."):
		if errors.Is(err, ErrDegraded) {
			t.Errorf("the call that broke the journal got the typed rejection %v, want the storage error", err)
		}
		m.post = m.clone()
		effect(m.post)
	}
}

// applied returns the document's content after tx, computed the way the
// warehouse computes it.
func applied(t *testing.T, pre string, tx *update.Transaction) string {
	t.Helper()
	ft, err := xmlio.ParseDoc([]byte(pre))
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := tx.ApplyFuzzy(ft)
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmlio.DocXML(next)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// faultWorkloadDocs are the documents the sweep workload touches.
var faultWorkloadDocs = []string{"alpha", "beta", "gamma"}

// runFaultWorkload drives a fixed single-threaded mix of creates,
// updates, view operations, reads, a drop and two compactions. Individual
// operations are allowed to fail — a fault is armed — but every
// success is folded into the model. The sequence is deterministic, so
// a fail-once fault always trips at the same call across runs.
func runFaultWorkload(t *testing.T, w *Warehouse, m *faultModel) {
	t.Helper()
	tx := update.New(tpwj.MustParseQuery("A(B $b)"), 1,
		update.Insert("b", tree.MustParse("N")))
	create := func(name, text string, probs map[event.ID]float64) {
		ft := fuzzy.MustParseTree(text, probs)
		m.attempt(t, w, func() error { return w.Create(name, ft) }, func(s *faultState) {
			data, err := xmlio.DocXML(ft)
			if err != nil {
				t.Fatal(err)
			}
			s.docs[name] = string(data)
		})
	}
	mutate := func(name string) {
		m.attempt(t, w, func() error { _, err := w.Update(name, tx); return err }, func(s *faultState) {
			s.docs[name] = applied(t, s.docs[name], tx)
		})
	}
	register := func(doc, view, query string) {
		m.attempt(t, w, func() error { _, err := w.RegisterView(doc, view, query, ""); return err }, func(s *faultState) {
			s.views[doc] = append(s.views[doc], view)
		})
	}

	create("alpha", "A(B[w1 !w2], C(D[w2]))", map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	create("beta", "A(B[w1])", map[event.ID]float64{"w1": 0.5})
	register("alpha", "v1", "A(B $b)")
	register("alpha", "v2", "A $a")
	mutate("alpha")

	// Read paths keep serving whatever happens to the write paths; their
	// errors (injected or cascading from failed creates) carry no state.
	w.Get("alpha")                                   //nolint:errcheck
	w.Query("alpha", tpwj.MustParseQuery("A(B $b)")) //nolint:errcheck
	w.ReadView("alpha", "v1")                        //nolint:errcheck
	w.List()                                         //nolint:errcheck
	w.Journal()                                      //nolint:errcheck

	mutate("beta")
	// A compaction gives beta a page, so the later one's checkpoint has
	// a dropped page to remove.
	w.Compact() //nolint:errcheck // fault-path outcome checked via the model
	m.attempt(t, w, func() error { return w.Drop("beta") }, func(s *faultState) {
		delete(s.docs, "beta")
		delete(s.views, "beta")
	})
	m.attempt(t, w, func() error { return w.DropView("alpha", "v2") }, func(s *faultState) {
		kept := s.views["alpha"][:0]
		for _, v := range s.views["alpha"] {
			if v != "v2" {
				kept = append(kept, v)
			}
		}
		s.views["alpha"] = kept
	})
	w.Compact() //nolint:errcheck // fault-path outcome checked via the model
	create("gamma", "A(B[w3])", map[event.ID]float64{"w3": 0.25})
	register("gamma", "g1", "A(B $b)")
	mutate("alpha")
}

// mismatches lists where the (recovered) warehouse differs from the
// state, documents and views both.
func (s *faultState) mismatches(w *Warehouse) []string {
	var out []string
	for _, doc := range faultWorkloadDocs {
		want, exists := s.docs[doc]
		got, err := w.GetXML(doc)
		switch {
		case !exists && !errors.Is(err, ErrNotFound):
			out = append(out, fmt.Sprintf("GetXML(%q) = %v, want ErrNotFound", doc, err))
		case exists && err != nil:
			out = append(out, fmt.Sprintf("GetXML(%q): %v", doc, err))
		case exists && string(got) != want:
			out = append(out, fmt.Sprintf("doc %q = %s, want %s", doc, got, want))
		}
		if !exists || err != nil {
			continue
		}
		defs, err := w.ListViews(doc)
		if err != nil {
			out = append(out, fmt.Sprintf("ListViews(%q): %v", doc, err))
			continue
		}
		var views []string
		for _, d := range defs {
			views = append(views, d.Name)
		}
		sort.Strings(views)
		wantViews := append([]string(nil), s.views[doc]...)
		sort.Strings(wantViews)
		if strings.Join(views, ",") != strings.Join(wantViews, ",") {
			out = append(out, fmt.Sprintf("views of %q = %v, want %v", doc, views, wantViews))
		}
		for _, v := range views {
			if _, err := w.ReadView(doc, v); err != nil {
				out = append(out, fmt.Sprintf("ReadView(%q, %q): %v", doc, v, err))
			}
		}
	}
	return out
}

// verifyFaultModel asserts the (recovered) warehouse is exactly the
// acknowledged state — or, when one mutation's outcome is open, exactly
// that state with the mutation applied.
func verifyFaultModel(t *testing.T, w *Warehouse, m *faultModel) {
	t.Helper()
	diff := m.mismatches(w)
	if len(diff) == 0 {
		return
	}
	if m.post == nil {
		t.Errorf("not the acknowledged state:\n  %s", strings.Join(diff, "\n  "))
	} else if postDiff := m.post.mismatches(w); len(postDiff) > 0 {
		t.Errorf("neither the acknowledged state:\n  %s\nnor that state plus the mutation the journal failed under:\n  %s",
			strings.Join(diff, "\n  "), strings.Join(postDiff, "\n  "))
	}
}

// requiredFaultPoints lists, per backend, the critical plumbing the
// discovery pass must observe. An interface change that silently
// renames a point would otherwise shrink the sweep. The filestore
// exercises journal.truncate via Compact (ResetJournal truncates in
// place); the kv backend compacts by rewrite-and-rename, so its
// truncate point only fires on torn-tail repair and is exercised by
// the torn-tail tests instead.
var requiredFaultPoints = map[string][]string{
	BackendFile: {
		"journal.open", "journal.read", "journal.write", "journal.sync", "journal.close",
		"journal.truncate", "doc.open", "doc.write", "doc.rename", "doc.remove",
		"layout.mkdir", "views.open", "views.rename", "views.readfile",
	},
	BackendKV: {
		"layout.mkdir", "kv.open", "kv.read", "kv.readat", "kv.write",
		"kv.sync", "kv.close", "kv.rename",
	},
}

// TestFaultPointSweep discovers, per storage backend, every fault
// point the open + workload sequence exercises (so new I/O call sites
// join the sweep automatically), then for each point injects a
// fail-once fault and asserts the contract: every operation either
// completes, aborts cleanly, or degrades the warehouse — and after the
// fault heals, recovery with the real filesystem reconstructs exactly
// the acknowledged state, give or take only the one mutation whose own
// journal write failed (see faultModel). Write points additionally get
// a torn-write variant (half the buffer lands before the error).
func TestFaultPointSweep(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			// Discovery pass: passthrough injector, plus a sanity check that the
			// model logic itself matches a fault-free run.
			inj := vfs.NewInjector()
			dir := t.TempDir()
			w, err := OpenBackend(dir, backend, vfs.NewFaultFS(vfs.OS, inj))
			if err != nil {
				t.Fatal(err)
			}
			m := newFaultModel()
			runFaultWorkload(t, w, m)
			if deg, reason := w.Degraded(); deg {
				t.Fatalf("degraded without any fault: %s", reason)
			}
			w.Close()
			if len(m.docs) != 2 || m.post != nil {
				t.Fatalf("fault-free workload acknowledged %d docs (open outcome: %v), want 2 (alpha, gamma) and none", len(m.docs), m.post != nil)
			}
			w0 := openB(t, dir, backend)
			verifyFaultModel(t, w0, m)
			w0.Close()

			points := inj.Observed()
			seen := make(map[string]bool, len(points))
			for _, p := range points {
				seen[p] = true
			}
			for _, must := range requiredFaultPoints[backend] {
				if !seen[must] {
					t.Errorf("fault point %s not observed by the workload (catalog: %v)", must, points)
				}
			}

			for _, point := range points {
				point := point
				t.Run(point, func(t *testing.T) {
					t.Parallel()
					sweepPoint(t, backend, point, vfs.Fault{Count: 1})
				})
				if strings.HasSuffix(point, ".write") {
					t.Run(point+"/short", func(t *testing.T) {
						t.Parallel()
						sweepPoint(t, backend, point, vfs.Fault{Count: 1, Short: true})
					})
				}
			}
		})
	}
}

// sweepPoint runs the workload with a fail-once fault armed at point,
// then verifies recovery against the model and the journal against the
// structural oracle.
func sweepPoint(t *testing.T, backend, point string, f vfs.Fault) {
	dir := t.TempDir()
	inj := vfs.NewInjector()
	inj.Set(point, f)
	m := newFaultModel()
	w, err := OpenBackend(dir, backend, vfs.NewFaultFS(vfs.OS, inj))
	if err == nil {
		runFaultWorkload(t, w, m)
		if deg, reason := w.Degraded(); deg && reason == "" {
			t.Error("degraded with an empty reason")
		}
		w.Close()
	}
	if inj.Trips(point) == 0 {
		t.Fatalf("fault at %s never fired — the workload no longer reaches it", point)
	}

	// The fault healed (Count: 1); recovery on the real filesystem must
	// land exactly on the acknowledged state.
	w2, err := OpenBackend(dir, backend, vfs.OS)
	if err != nil {
		t.Fatalf("recovery open after %s fault: %v", point, err)
	}
	verifyFaultModel(t, w2, m)
	w2.Close()

	// Structural oracle: the journal recovery leaves behind parses
	// cleanly end to end, with no torn tail and no dangling abort.
	sum, err := InspectJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TornTail || len(sum.Problems) > 0 {
		t.Errorf("journal after recovery: torn=%v problems=%v", sum.TornTail, sum.Problems)
	}

	// Convergence: a second open finds nothing left to repair.
	w3, err := OpenBackend(dir, backend, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if r, a := counter(w3, "px_recovery_replays_total"), counter(w3, "px_journal_appends_total"); r != 0 || a != 0 {
		t.Errorf("recovery did not converge after one open: %d replays, %d appends", r, a)
	}
	verifyFaultModel(t, w3, m)
}

// TestJournalSyncFailureDegrades pins the degrade policy at the
// warehouse layer: a failed journal fsync is terminal (the page cache
// may have dropped the dirty data, so a retry could lie) — the failing
// mutation errors, every later write is rejected with ErrDegraded,
// reads keep answering, and Reopen recovers in place, keeping the
// failed mutation iff its record reached the disk whole.
func TestJournalSyncFailureDegrades(t *testing.T) {
	// The injection point of the journal fsync is backend-specific; the
	// degrade reason ("journal.sync") is the warehouse layer's label and
	// identical for both.
	for backend, point := range map[string]string{
		BackendFile: "journal.sync",
		BackendKV:   "kv.sync",
	} {
		t.Run(backend, func(t *testing.T) {
			testJournalSyncFailureDegrades(t, backend, point)
		})
	}
}

func testJournalSyncFailureDegrades(t *testing.T, backend, point string) {
	dir := t.TempDir()
	inj := vfs.NewInjector()
	w, err := OpenBackend(dir, backend, vfs.NewFaultFS(vfs.OS, inj))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	preFault, err := w.GetXML("doc")
	if err != nil {
		t.Fatal(err)
	}

	inj.Set(point, vfs.Fault{Count: 1})
	tx := update.New(tpwj.MustParseQuery("A $a"), 1,
		update.Insert("a", tree.MustParse("N")))
	if _, err := w.Update("doc", tx); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Update during fsync fault = %v, want injected error", err)
	}
	if deg, reason := w.Degraded(); !deg || !strings.Contains(reason, "journal") {
		t.Fatalf("Degraded() = %v, %q, want degraded by a journal failure", deg, reason)
	}

	// Writes fail fast and typed; reads keep serving.
	if err := w.Create("other", slide12()); !errors.Is(err, ErrDegraded) {
		t.Errorf("Create while degraded = %v, want ErrDegraded", err)
	}
	if err := w.Compact(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Compact while degraded = %v, want ErrDegraded", err)
	}
	if _, err := w.Get("doc"); err != nil {
		t.Errorf("Get while degraded: %v", err)
	}
	if _, err := w.Query("doc", tpwj.MustParseQuery("A $a")); err != nil {
		t.Errorf("Query while degraded: %v", err)
	}

	// The fault healed; Reopen re-runs recovery and clears the flag. The
	// failed update is the one indeterminate mutation: its record was
	// flushed before the fsync failed, so an injected failure leaves it
	// whole and recovery keeps it; a real one may have lost it.
	if err := w.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if deg, _ := w.Degraded(); deg {
		t.Fatal("still degraded after Reopen")
	}
	got, err := w.GetXML("doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(preFault) && string(got) != applied(t, string(preFault), tx) {
		t.Errorf("doc after Reopen = %s, want the pre-state or the failed update's post-state", got)
	}
	if _, err := w.Update("doc", tx); err != nil {
		t.Errorf("Update after Reopen: %v", err)
	}
}

// TestViewSnapshotCloseFailureReported pins satellite (a) of the
// write-path error audit: a failing Close on the views.json snapshot
// write surfaces as a Compact error — the snapshot may be incomplete,
// and acknowledging the compaction would truncate the only durable
// copy of the registrations. The journal is untouched at that point,
// so the warehouse stays writable (no degrade) and the registration
// survives recovery.
func TestViewSnapshotCloseFailureReported(t *testing.T) {
	dir := t.TempDir()
	inj := vfs.NewInjector()
	w, err := OpenFS(dir, vfs.NewFaultFS(vfs.OS, inj))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc", "v", "A $a", ""); err != nil {
		t.Fatal(err)
	}

	inj.Set("views.close", vfs.Fault{Count: 1})
	if err := w.Compact(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Compact with failing snapshot close = %v, want the injected error", err)
	}
	if deg, reason := w.Degraded(); deg {
		t.Fatalf("snapshot failure degraded the warehouse (%s); the journal is still intact", reason)
	}

	// The fault healed: the next Compact succeeds and the registration
	// survives a fresh open from the snapshot.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.ReadView("doc", "v"); err != nil {
		t.Errorf("view lost after snapshot-close fault + retry: %v", err)
	}
}
