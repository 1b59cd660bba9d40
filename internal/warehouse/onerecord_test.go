package warehouse_test

// The one-record contract, clause by clause, through the public API:
// an acknowledged mutation is exactly one journal record and one
// fsync, and an update touches nothing else (TestOneRecordPerMutation);
// a reader never observes a state a crash can take back
// (TestReadersNeverSeeUndurableState); stored documents are checkpoints
// that Compact and Close bring up to date and that Open catches up
// after a kill (TestCheckpoint*).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
)

var backends = []string{warehouse.BackendFile, warehouse.BackendKV}

// syncPoint is the fault point of the journal's fsync per backend.
var syncPoint = map[string]string{warehouse.BackendFile: "journal.sync", warehouse.BackendKV: "kv.sync"}

func smallDoc() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1 !w2], C(D[w2]))", map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

func insertN() *update.Transaction {
	return update.New(tpwj.MustParseQuery("A $a"), 0.5, update.Insert("a", tree.MustParse("N")))
}

func open(t *testing.T, dir, backend string, fsys vfs.FS) *warehouse.Warehouse {
	t.Helper()
	w, err := warehouse.OpenBackend(dir, backend, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOneRecordPerMutation: from a single goroutine, each acknowledged
// mutation and view operation advances the journal by exactly one
// record and one fsync and performs no document I/O at all — the store
// grows by the record's frame and nothing else.
func TestOneRecordPerMutation(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			inj := vfs.NewInjector()
			w := open(t, t.TempDir(), backend, vfs.NewFaultFS(vfs.OS, inj))
			defer w.Close()
			docCalls := func() int {
				n := 0
				for _, p := range inj.Observed() {
					if strings.HasPrefix(p, "doc.") {
						n += inj.Calls(p)
					}
				}
				return n
			}
			journalBytes := w.Registry().Counter("px_journal_bytes_total", "").Value
			appends := w.Registry().Counter("px_journal_appends_total", "").Value
			batches := w.Registry().Counter("px_journal_sync_batches_total", "").Value
			// What a backend adds around a journal payload: a newline, or a
			// kv frame's header and checksum.
			framing := map[string]int64{warehouse.BackendFile: 1, warehouse.BackendKV: 19}[backend]
			step := func(name string, op func() error) {
				t.Helper()
				stored, err := w.StorageStats() // itself document I/O: read first
				if err != nil {
					t.Fatal(err)
				}
				a0, b0 := appends(), batches()
				syncs, docs, payload := inj.Calls(syncPoint[backend]), docCalls(), journalBytes()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a1, b1 := appends(), batches(); a1 != a0+1 || b1 != b0+1 {
					t.Errorf("%s: appends %d -> %d, sync batches %d -> %d; want +1 and +1",
						name, a0, a1, b0, b1)
				}
				if got := inj.Calls(syncPoint[backend]) - syncs; got != 1 {
					t.Errorf("%s: %d fsyncs, want 1", name, got)
				}
				if got := docCalls() - docs; got != 0 {
					t.Errorf("%s: %d document I/O calls, want none", name, got)
				}
				now, err := w.StorageStats()
				if err != nil {
					t.Fatal(err)
				}
				if grew, want := now.Bytes-stored.Bytes, journalBytes()-payload+framing; grew != want {
					t.Errorf("%s: the store grew by %d bytes, want the record's %d", name, grew, want)
				}
			}
			step("Create", func() error { return w.Create("doc", smallDoc()) })
			step("RegisterView", func() error { _, err := w.RegisterView("doc", "v", "A(B $b)", ""); return err })
			step("Update", func() error { _, err := w.Update("doc", insertN()); return err })
			step("Simplify", func() error { _, err := w.Simplify("doc"); return err })
			step("DropView", func() error { return w.DropView("doc", "v") })
			step("Drop", func() error { return w.Drop("doc") })
		})
	}
}

// whileFailing runs op, whose journal fsync fails, while a reader polls
// check, and requires that op returns the injected error and degrades
// the warehouse. check describes what it saw that it must not have, or
// returns "".
func whileFailing(t *testing.T, w *warehouse.Warehouse, check func() string, op func() error) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if bad := check(); bad != "" {
				t.Errorf("a reader racing the failing call saw %s", bad)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	err := op()
	close(done)
	wg.Wait()
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("a call under a failing journal fsync returned %v, want the injected error", err)
	}
	if deg, reason := w.Degraded(); !deg || !strings.HasPrefix(reason, "journal.sync") {
		t.Errorf("Degraded() = %v, %q; want degraded by journal.sync", deg, reason)
	}
	if bad := check(); bad != "" {
		t.Errorf("after the failed call readers see %s", bad)
	}
}

// TestReadersNeverSeeUndurableState: a mutation whose journal fsync
// fails returns the error and degrades the warehouse, no reader —
// before, during or after the call — sees anything but the pre-state,
// and once Reopen has re-read the disk the document is exactly the
// pre-state or exactly the post-state, whichever the journal holds. For
// an update, readers keep the document's previous version; for a
// create, the name stays missing everywhere and leaves no table entry.
func TestReadersNeverSeeUndurableState(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			inj := vfs.NewInjector()
			w := open(t, t.TempDir(), backend, vfs.NewFaultFS(vfs.OS, inj))
			defer w.Close()
			if err := w.Create("doc", smallDoc()); err != nil {
				t.Fatal(err)
			}
			if _, err := w.RegisterView("doc", "v", "A $a", ""); err != nil {
				t.Fatal(err)
			}
			q := tpwj.MustParseQuery("A(N $n)")
			read := func() string {
				data, err := w.GetXML("doc")
				if err != nil {
					return "GetXML: " + err.Error()
				}
				answers, err := w.Query("doc", q)
				if err != nil {
					return "Query: " + err.Error()
				}
				v, err := w.ReadView("doc", "v")
				if err != nil {
					return "ReadView: " + err.Error()
				}
				return fmt.Sprintf("%s\nquery %v\nview %v stale=%v", data, answers, v.Answers, v.Stale)
			}
			pre := read()
			preXML, err := w.GetXML("doc")
			if err != nil {
				t.Fatal(err)
			}
			tx := insertN()
			preTree, err := xmlio.ParseDoc(preXML)
			if err != nil {
				t.Fatal(err)
			}
			postTree, _, err := tx.ApplyFuzzy(preTree)
			if err != nil {
				t.Fatal(err)
			}
			postXML, err := xmlio.DocXML(postTree)
			if err != nil {
				t.Fatal(err)
			}

			inj.Set(syncPoint[backend], vfs.Fault{Count: 1})
			whileFailing(t, w, func() string {
				if got := read(); got != pre {
					return fmt.Sprintf("\n%s\nwant the pre-state:\n%s", got, pre)
				}
				return ""
			}, func() error { _, err := w.Update("doc", tx); return err })
			if err := w.Reopen(); err != nil {
				t.Fatal(err)
			}
			got, err := w.GetXML("doc")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(preXML) && string(got) != string(postXML) {
				t.Errorf("after Reopen the document is\n%s\nwant exactly the pre-state\n%s\nor the post-state\n%s", got, preXML, postXML)
			}

			// A create: the name must stay missing to every reader.
			entries := warehouse.TableSize(w)
			missing := func() string {
				if _, err := w.Snapshot(context.Background(), "fresh"); !errors.Is(err, warehouse.ErrNotFound) {
					return fmt.Sprintf("Snapshot(fresh) = %v", err)
				}
				if _, err := w.Stat("fresh"); !errors.Is(err, warehouse.ErrNotFound) {
					return fmt.Sprintf("Stat(fresh) = %v", err)
				}
				if _, err := w.ListViews("fresh"); !errors.Is(err, warehouse.ErrNotFound) {
					return fmt.Sprintf("ListViews(fresh) = %v", err)
				}
				if names, err := w.List(); err != nil || slices.Contains(names, "fresh") {
					return fmt.Sprintf("List() = %v, %v", names, err)
				}
				return ""
			}
			inj.Set(syncPoint[backend], vfs.Fault{Count: 1})
			whileFailing(t, w, missing, func() error { return w.Create("fresh", smallDoc()) })
			if got := warehouse.TableSize(w); got != entries {
				t.Errorf("the failed create left the table at %d entries, want %d", got, entries)
			}
			if err := w.Reopen(); err != nil {
				t.Fatal(err)
			}
			recs, err := w.Journal()
			if err != nil {
				t.Fatal(err)
			}
			whole := slices.ContainsFunc(recs, func(r warehouse.Record) bool {
				return r.Op == warehouse.OpCreate && r.Doc == "fresh"
			})
			fresh, err := w.GetXML("fresh")
			if present := err == nil; present != whole {
				t.Errorf("after Reopen GetXML(fresh) = %v with the create record whole = %v; want present iff whole", err, whole)
			}
			if want, _ := xmlio.DocXML(smallDoc()); err == nil && string(fresh) != string(want) {
				t.Errorf("after Reopen the created document is\n%s\nwant\n%s", fresh, want)
			}
		})
	}
}

// checkpointFixture opens a warehouse with three documents, two of
// them updated, one view, and returns it with its fingerprint. All
// three are dirty: creates write no page either.
func checkpointFixture(t *testing.T, dir, backend string, fsys vfs.FS) (*warehouse.Warehouse, string) {
	t.Helper()
	w := open(t, dir, backend, fsys)
	for _, name := range []string{"a", "b", "c"} {
		if err := w.Create(name, smallDoc()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.RegisterView("a", "v", "A $a", ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "a"} {
		if _, err := w.Update(name, insertN()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Simplify("b"); err != nil {
		t.Fatal(err)
	}
	return w, fingerprint(t, w)
}

// reopened opens dir, requires the fingerprint and the replay count,
// and closes it again.
func reopened(t *testing.T, dir, backend, want string, replays int64) {
	t.Helper()
	w := open(t, dir, backend, vfs.OS)
	defer w.Close()
	if got := fingerprint(t, w); got != want {
		t.Errorf("reopened state:\n%s\nwant:\n%s", got, want)
	}
	r, a := w.Registry().Counter("px_recovery_replays_total", "").Value(), w.Registry().Counter("px_journal_appends_total", "").Value()
	if r != replays || a != 0 {
		t.Errorf("reopen: %d replays, %d appends; want %d replays and nothing appended", r, a, replays)
	}
}

// TestCheckpointCompact: Compact writes the dirty pages, makes them
// durable and truncates the journal, so a byte copy of the directory —
// a crash image — opens to the post-states with an empty journal.
func TestCheckpointCompact(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			w, want := checkpointFixture(t, dir, backend, vfs.OS)
			defer w.Close()
			if err := w.Compact(); err != nil {
				t.Fatal(err)
			}
			image := t.TempDir()
			copyDir(t, dir, image)
			sum, err := warehouse.InspectJournalBackend(image, backend)
			if err != nil || sum.Records != 0 || sum.TornTail {
				t.Fatalf("journal of the image after Compact: %+v (err %v), want empty", sum, err)
			}
			reopened(t, image, backend, want, 0)
			// And the live warehouse goes on: the next update is journaled
			// over the checkpoint and survives a kill.
			if _, err := w.Update("c", insertN()); err != nil {
				t.Fatal(err)
			}
			image2 := t.TempDir()
			copyDir(t, dir, image2)
			reopened(t, image2, backend, fingerprint(t, w), 1)
		})
	}
}

// TestCheckpointClose: a clean Close leaves current pages, so the next
// Open has nothing to replay — although the journal still holds every
// record.
func TestCheckpointClose(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			w, want := checkpointFixture(t, dir, backend, vfs.OS)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			reopened(t, dir, backend, want, 0)
		})
	}
}

// TestCheckpointKill: a byte copy taken without Close has stale pages
// for the two updated documents and no page for the third, which was
// created and never checkpointed; the first Open replays exactly those
// three from the journal, the second finds them current.
func TestCheckpointKill(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			w, want := checkpointFixture(t, dir, backend, vfs.OS)
			defer w.Close()
			image := t.TempDir()
			copyDir(t, dir, image)
			reopened(t, image, backend, want, 3)
			reopened(t, image, backend, want, 0)
		})
	}
}

// TestCheckpointFailureKeepsJournal: a Compact whose checkpoint write
// fails returns the error before anything was given up — the journal
// is whole, the warehouse writable, a crash image recovers everything —
// and the next Compact completes.
func TestCheckpointFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	inj := vfs.NewInjector()
	w, want := checkpointFixture(t, dir, warehouse.BackendFile, vfs.NewFaultFS(vfs.OS, inj))
	defer w.Close()
	before, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}

	inj.Set("doc.write", vfs.Fault{Count: 1})
	if err := w.Compact(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Compact with a failing page write = %v, want the injected error", err)
	}
	if deg, reason := w.Degraded(); deg {
		t.Fatalf("a failed checkpoint degraded the warehouse: %s", reason)
	}
	after, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) || len(after) == 0 {
		t.Fatalf("journal holds %d records after the failed Compact, %d before", len(after), len(before))
	}
	if got := fingerprint(t, w); got != want {
		t.Errorf("live state changed:\n%s\nwant:\n%s", got, want)
	}
	image := t.TempDir()
	copyDir(t, dir, image)
	w2 := open(t, image, warehouse.BackendFile, vfs.OS)
	if got := fingerprint(t, w2); got != want {
		t.Errorf("crash image after the failed Compact:\n%s\nwant:\n%s", got, want)
	}
	w2.Close()

	if err := w.Compact(); err != nil {
		t.Fatalf("Compact after the fault healed: %v", err)
	}
	if recs, err := w.Journal(); err != nil || len(recs) != 0 {
		t.Errorf("journal after Compact: %d records (err %v), want none", len(recs), err)
	}
	image = t.TempDir()
	copyDir(t, dir, image)
	reopened(t, image, warehouse.BackendFile, want, 0)
}
