package warehouse

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
)

// counter reads one of the warehouse's unlabeled counters, the value
// /stats and /metrics report for it.
func counter(w *Warehouse, name string) int64 { return w.Registry().Counter(name, "").Value() }

func openTemp(t *testing.T) *Warehouse {
	t.Helper()
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func slide12() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1 !w2], C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

func TestCreateGetList(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc1", slide12()); err != nil {
		t.Fatal(err)
	}
	got, err := w.Get("doc1")
	if err != nil {
		t.Fatal(err)
	}
	if !fuzzy.Equal(got.Root, slide12().Root) {
		t.Errorf("Get = %s", fuzzy.Format(got.Root))
	}
	names, err := w.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "doc1" {
		t.Errorf("List = %v", names)
	}
}

func TestCreateValidation(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("", slide12()); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.Create("../evil", slide12()); err == nil {
		t.Error("path traversal name accepted")
	}
	bad := fuzzy.New(fuzzy.MustParse("A(B[zz])"))
	if err := w.Create("bad", bad); err == nil {
		t.Error("invalid document accepted")
	}
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc", slide12()); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	a, _ := w.Get("doc")
	a.Root.Label = "MUTATED"
	b, _ := w.Get("doc")
	if b.Root.Label == "MUTATED" {
		t.Error("Get shares state between callers")
	}
}

func TestGetMissing(t *testing.T) {
	w := openTemp(t)
	if _, err := w.Get("nope"); err == nil {
		t.Error("missing document accepted")
	}
}

func TestDrop(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	if err := w.Drop("doc"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Get("doc"); err == nil {
		t.Error("dropped document still accessible")
	}
	if err := w.Drop("doc"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestQuery(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	answers, err := w.Query("doc", tpwj.MustParseQuery("A(B)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || math.Abs(answers[0].P-0.24) > 1e-12 {
		t.Errorf("answers = %v", answers)
	}
}

func TestUpdatePersists(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	tx := update.New(tpwj.MustParseQuery("A $a"), 0.9,
		update.Insert("a", tree.MustParse("N:new")))
	stats, err := w.Update("doc", tx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 {
		t.Errorf("stats = %+v", stats)
	}
	w.Close()

	// Reopen: the update must have been persisted.
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	got.Root.Walk(func(n *fuzzy.Node) bool {
		if n.Label == "N" {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Errorf("inserted node lost after reopen: %s", fuzzy.Format(got.Root))
	}
}

func TestSimplifyPersists(t *testing.T) {
	w := openTemp(t)
	ft := fuzzy.MustParseTree("A(B[w1 !w1], C[w2])",
		map[event.ID]float64{"w1": 0.5, "w2": 0.7})
	if err := w.Create("doc", ft); err != nil {
		t.Fatal(err)
	}
	stats, err := w.Simplify("doc")
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesRemoved != 1 {
		t.Errorf("stats = %+v", stats)
	}
	got, _ := w.Get("doc")
	if !fuzzy.Equal(got.Root, fuzzy.MustParse("A(C[w2])")) {
		t.Errorf("after simplify: %s", fuzzy.Format(got.Root))
	}
}

func TestStat(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	info, err := w.Stat("doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 4 || info.Events != 2 || info.Worlds != 4 {
		t.Errorf("Info = %+v", info)
	}
}

func TestJournalAudit(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	tx := update.New(tpwj.MustParseQuery("A $a"), 1, update.Insert("a", tree.MustParse("N")))
	if _, err := w.Update("doc", tx); err != nil {
		t.Fatal(err)
	}
	recs, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	// One record per mutation: create, update.
	if len(recs) != 2 {
		t.Fatalf("journal records = %d: %+v", len(recs), recs)
	}
	if recs[0].Op != OpCreate || recs[1].Op != OpUpdate {
		t.Errorf("ops = %s %s", recs[0].Op, recs[1].Op)
	}
	if !strings.Contains(recs[1].Tx, "insert") {
		t.Errorf("update record lacks transaction: %q", recs[1].Tx)
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) || r.RefSeq != 0 {
			t.Errorf("record %d: seq %d ref %d, want seq %d and no ref", i, r.Seq, r.RefSeq, i+1)
		}
	}
	// The create is the document's full state, so the update record
	// carries its transaction and the post-state's node count only.
	info, err := w.Stat("doc")
	if err != nil {
		t.Fatal(err)
	}
	if recs[1].Content != "" || recs[1].Nodes != info.Nodes || recs[1].Event != "" {
		t.Errorf("update record = %+v, want Tx only with %d nodes and no event", recs[1], info.Nodes)
	}
	// After a Reopen the journal holds no full state the new instance
	// wrote, so the next update's record carries the post-state itself,
	// and names the event it minted.
	if err := w.Reopen(); err != nil {
		t.Fatal(err)
	}
	stats, err := w.Update("doc", update.New(tpwj.MustParseQuery("A $a"), 0.5, update.Insert("a", tree.MustParse("M"))))
	if err != nil {
		t.Fatal(err)
	}
	if recs, err = w.Journal(); err != nil {
		t.Fatal(err)
	}
	want, err := w.GetXML("doc")
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Content != string(want) || last.Nodes != 0 || last.Event != string(stats.Event) || stats.Event == "" {
		t.Errorf("first update after Reopen = %+v, want the document %q and event %q", last, want, stats.Event)
	}
}

// TestRecoveryTornJournalTail: a partial last line (torn write) is
// ignored.
func TestRecoveryTornJournalTail(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			w := openB(t, dir, backend)
			if err := w.Create("doc", slide12()); err != nil {
				t.Fatal(err)
			}
			w.Close()

			tearJournalTail(t, dir, backend)

			w2, err := OpenBackend(dir, backend, vfs.OS)
			if err != nil {
				t.Fatalf("torn journal tail broke recovery: %v", err)
			}
			defer w2.Close()
			if _, err := w2.Get("doc"); err != nil {
				t.Errorf("document lost: %v", err)
			}
		})
	}
}

func TestCorruptDocumentReported(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	// Compact first: with the create still journaled, recovery would
	// repair the corruption from the journaled post-state (see
	// TestRecoveryRepairsCorruptFile); after compaction the file is
	// authoritative and the damage must surface.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file behind the warehouse's back and drop the cache by
	// reopening.
	w.Close()
	os.WriteFile(filepath.Join(dir, docsDir, "doc"+docExt), []byte("not xml"), 0o644)
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Get("doc"); err == nil {
		t.Error("corrupt document accepted")
	}
}

// TestRecoveryRepairsCorruptFile: while the journal still holds a
// document's post-state, recovery rewrites a damaged file from it on
// open — the journal, not the file, is the source of truth.
func TestRecoveryRepairsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	os.WriteFile(filepath.Join(dir, docsDir, "doc"+docExt), []byte("not xml"), 0o644)
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Get("doc")
	if err != nil {
		t.Fatalf("journaled document not repaired: %v", err)
	}
	if !fuzzy.Equal(got.Root, slide12().Root) {
		t.Errorf("repaired document = %s", fuzzy.Format(got.Root))
	}
	if r := counter(w2, "px_recovery_replays_total"); r != 1 {
		t.Errorf("recovery replays = %d, want 1", r)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := w.Query("doc", tpwj.MustParseQuery("A(//D)")); err != nil {
					errs <- err
				}
			}
		}()
		go func() {
			defer wg.Done()
			tx := update.New(tpwj.MustParseQuery("A $a"), 0.5,
				update.Insert("a", tree.MustParse("N")))
			if _, err := w.Update("doc", tx); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All 8 inserts must be present.
	got, _ := w.Get("doc")
	count := 0
	got.Root.Walk(func(n *fuzzy.Node) bool {
		if n.Label == "N" {
			count++
		}
		return true
	})
	if count != 8 {
		t.Errorf("inserted nodes = %d, want 8", count)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("journal not empty after compact: %d records", len(recs))
	}
	// The warehouse keeps working and the document survives a reopen.
	tx := update.New(tpwj.MustParseQuery("A $a"), 1, update.Insert("a", tree.MustParse("N")))
	if _, err := w.Update("doc", tx); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Get("doc"); err != nil {
		t.Errorf("document lost after compact+reopen: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Compact(); err == nil {
		t.Error("compact after close accepted")
	}
}

func TestClosedWarehouseRejectsMutations(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Create("doc2", slide12()); err == nil {
		t.Error("create after close accepted")
	}
}
