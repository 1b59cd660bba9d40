package warehouse

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
)

// faultModel is the oracle of the fault sweep: the state acknowledged
// to the workload. Only operations that returned nil update it, so
// after a fault plus recovery the warehouse must match it exactly — a
// failed mutation may not leave any visible trace, and a successful
// one may not lose its effect. It is the operation-level counterpart
// of expectState (recovery_test.go), which predicts the same state
// from the journal bytes.
type faultModel struct {
	docs  map[string]string   // name -> serialized content; absent = must not exist
	views map[string][]string // doc -> registered view names
}

func newFaultModel() *faultModel {
	return &faultModel{docs: make(map[string]string), views: make(map[string][]string)}
}

// capture records a document's acknowledged post-state. Reads come
// from the in-memory snapshot, so they work even if the warehouse
// degraded right after acknowledging the mutation.
func (m *faultModel) capture(w *Warehouse, name string) {
	if data, err := w.GetXML(name); err == nil {
		m.docs[name] = string(data)
	}
}

func (m *faultModel) dropView(doc, name string) {
	kept := m.views[doc][:0]
	for _, v := range m.views[doc] {
		if v != name {
			kept = append(kept, v)
		}
	}
	m.views[doc] = kept
}

// faultWorkloadDocs are the documents the sweep workload touches.
var faultWorkloadDocs = []string{"alpha", "beta", "gamma"}

// runFaultWorkload drives a fixed single-threaded mix of creates,
// updates, view operations, reads, a drop and a compaction. Individual
// operations are allowed to fail — a fault is armed — but every
// success is folded into the model. The sequence is deterministic, so
// a fail-once fault always trips at the same call across runs.
func runFaultWorkload(t *testing.T, w *Warehouse, m *faultModel) {
	t.Helper()
	tx := update.New(tpwj.MustParseQuery("A(B $b)"), 1,
		update.Insert("b", tree.MustParse("N")))
	create := func(name, text string, probs map[event.ID]float64) {
		if err := w.Create(name, fuzzy.MustParseTree(text, probs)); err == nil {
			m.capture(w, name)
		}
	}
	mutate := func(name string, op func() error) {
		if err := op(); err == nil {
			m.capture(w, name)
		}
	}
	register := func(doc, view, query string) {
		if _, err := w.RegisterView(doc, view, query, ""); err == nil {
			m.views[doc] = append(m.views[doc], view)
		}
	}

	create("alpha", "A(B[w1 !w2], C(D[w2]))", map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	create("beta", "A(B[w1])", map[event.ID]float64{"w1": 0.5})
	register("alpha", "v1", "A(B $b)")
	register("alpha", "v2", "A $a")
	mutate("alpha", func() error { _, err := w.Update("alpha", tx); return err })

	// Read paths keep serving whatever happens to the write paths; their
	// errors (injected or cascading from failed creates) carry no state.
	w.Get("alpha")                                   //nolint:errcheck
	w.Query("alpha", tpwj.MustParseQuery("A(B $b)")) //nolint:errcheck
	w.ReadView("alpha", "v1")                        //nolint:errcheck
	w.List()                                         //nolint:errcheck
	w.Journal()                                      //nolint:errcheck

	mutate("beta", func() error { _, err := w.Update("beta", tx); return err })
	if err := w.Drop("beta"); err == nil {
		delete(m.docs, "beta")
		delete(m.views, "beta")
	}
	if err := w.DropView("alpha", "v2"); err == nil {
		m.dropView("alpha", "v2")
	}
	w.Compact() //nolint:errcheck // fault-path outcome checked via the model
	create("gamma", "A(B[w3])", map[event.ID]float64{"w3": 0.25})
	register("gamma", "g1", "A(B $b)")
	mutate("alpha", func() error { _, err := w.Update("alpha", tx); return err })
}

// verifyFaultModel asserts the (recovered) warehouse matches the
// acknowledged state exactly, documents and views both.
func verifyFaultModel(t *testing.T, w *Warehouse, m *faultModel) {
	t.Helper()
	for _, doc := range faultWorkloadDocs {
		wantDoc(t, w, doc, m.docs[doc])
	}
	for _, doc := range faultWorkloadDocs {
		if _, ok := m.docs[doc]; !ok {
			continue
		}
		defs, err := w.ListViews(doc)
		if err != nil {
			t.Errorf("ListViews(%q): %v", doc, err)
			continue
		}
		var got []string
		for _, d := range defs {
			got = append(got, d.Name)
		}
		sort.Strings(got)
		want := append([]string(nil), m.views[doc]...)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("views of %q = %v, want %v", doc, got, want)
		}
		for _, v := range m.views[doc] {
			if _, err := w.ReadView(doc, v); err != nil {
				t.Errorf("ReadView(%q, %q): %v", doc, v, err)
			}
		}
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
// fail-once fault and asserts the contract of ISSUE satellite (b):
// every operation either completes, aborts cleanly, or degrades the
// warehouse — and after the fault heals, recovery with the real
// filesystem reconstructs exactly the acknowledged state. Write points
// additionally get a torn-write variant (half the buffer lands before
// the error).
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
			if len(m.docs) != 2 {
				t.Fatalf("fault-free workload acknowledged %d docs, want 2 (alpha, gamma)", len(m.docs))
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
	// cleanly end to end, with no torn tail and no dangling markers.
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
	if s := w3.JournalStats(); s.RecoveryRollbacks != 0 || s.RecoveryReplays != 0 || s.RecoveryRollforwards != 0 {
		t.Errorf("recovery did not converge after one open: %+v", s)
	}
	verifyFaultModel(t, w3, m)
}

// TestJournalSyncFailureDegrades pins the tentpole degrade policy at
// the warehouse layer: a failed journal fsync is terminal (the page
// cache may have dropped the dirty data, so a retry could lie) — the
// failing mutation errors, every later write is rejected with
// ErrDegraded, reads keep answering, and Reopen recovers in place.
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
	// failed update was never durable, so it must have rolled back.
	if err := w.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if deg, _ := w.Degraded(); deg {
		t.Fatal("still degraded after Reopen")
	}
	wantDoc(t, w, "doc", string(preFault))
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

// TestCreateStatFailureKeepsDocument is the sweep case the fail-once
// schedule cannot reach (its first doc.stat is the create of a fresh
// name): the existence check of a Create failing on a name already in
// use. An unanswered "does it exist?" is not "no" — the Create must
// fail with the storage error, and the stored document must be
// unchanged, live and after recovery. Filestore only: the kv backend
// answers DocExists from memory.
func TestCreateStatFailureKeepsDocument(t *testing.T) {
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
	want, err := w.GetXML("doc")
	if err != nil {
		t.Fatal(err)
	}

	inj.Set("doc.stat", vfs.Fault{Count: 1})
	err = w.Create("doc", fuzzy.MustParseTree("Other(X)", nil))
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Create with failing stat = %v, want the injected error", err)
	}
	if inj.Trips("doc.stat") != 1 {
		t.Fatalf("doc.stat tripped %d times, want 1", inj.Trips("doc.stat"))
	}
	wantDoc(t, w, "doc", string(want))
	w.Close()
	w2 := openB(t, dir, BackendFile)
	defer w2.Close()
	wantDoc(t, w2, "doc", string(want))
}
