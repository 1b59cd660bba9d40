// Package storetest is the conformance suite for store.Store backends:
// one case per clause of the store.Store and store.Log contracts, run
// against any backend a constructor returns. A backend's test file
// calls
//
//	storetest.Run(t, func(dir string) store.Store { return mybackend.New(dir, vfs.OS) })
//
// The suite checks what the warehouse relies on through the interface
// only; crash and fault behaviour under a vfs.FaultFS stays with the
// warehouse's sweeps, and cross-backend equivalence with
// TestStorageDifferential.
package storetest

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/store"
)

// Run runs every conformance case against the backend newStore builds.
// newStore may be called several times on one directory: each call
// must return a fresh, unopened instance over the same on-disk state.
func Run(t *testing.T, newStore func(dir string) store.Store) {
	cases := []struct {
		name string
		fn   func(t *testing.T, newStore func(string) store.Store)
	}{
		{"PayloadsInAppendOrderAcrossReopen", payloadsInAppendOrder},
		{"ValidCalledOncePerPayloadInOrder", validCalledOncePerPayload},
		{"RejectedFinalPayloadDropped", rejectedFinalPayloadDropped},
		{"ScanJournalWithoutOpenWritesNothing", scanJournalWritesNothing},
		{"ResetJournalEmptiesScan", resetJournalEmptiesScan},
		{"DocRoundTrip", docRoundTrip},
		{"MissingDocIsNotExist", missingDocIsNotExist},
		{"ViewsAbsentBeforeFirstWrite", viewsAbsentBeforeFirstWrite},
		{"StatsCountDocs", statsCountDocs},
		{"OpenAfterClose", openAfterClose},
		{"PayloadsLongerThanScanBuffer", payloadsLongerThanScanBuffer},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.fn(t, newStore) })
	}
}

// isRecord is the suite's journal-record predicate: a record is any
// payload except one starting with "bad". The warehouse's own
// predicate decodes JSON; the contract only needs a yes or no.
func isRecord(p []byte) bool { return !bytes.HasPrefix(p, []byte("bad")) }

func acceptAll([]byte) bool { return true }

// open opens s, failing the test on error.
func open(t *testing.T, s store.Store, valid func([]byte) bool) ([][]byte, store.Log) {
	t.Helper()
	payloads, log, err := s.Open(valid)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return payloads, log
}

// appendDurably appends the payloads to log as one group commit.
func appendDurably(t *testing.T, log store.Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := log.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// shut closes the log and then the store.
func shut(t *testing.T, s store.Store, log store.Log) {
	t.Helper()
	if err := log.Close(); err != nil {
		t.Fatalf("Log.Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// wantPayloads compares payloads with the expected strings.
func wantPayloads(t *testing.T, what string, got [][]byte, want ...string) {
	t.Helper()
	gs := make([]string, len(got))
	for i, p := range got {
		gs[i] = string(p)
	}
	if !slices.Equal(gs, want) {
		t.Errorf("%s: payloads %q, want %q", what, gs, want)
	}
}

// dirBytes sums the sizes of every file below dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Open returns the surviving payloads in append order, on a fresh
// instance as on the one that wrote them.
func payloadsInAppendOrder(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	got, log := open(t, s, isRecord)
	wantPayloads(t, "fresh directory", got)
	appendDurably(t, log, "r1", `{"op":"create"}`, "r3")
	appendDurably(t, log, "r4")
	shut(t, s, log)

	s = newStore(dir)
	got, log = open(t, s, isRecord)
	wantPayloads(t, "after reopen", got, "r1", `{"op":"create"}`, "r3", "r4")
	shut(t, s, log)
}

// A payload longer than the scan's read buffer comes back whole, from
// Open and from ScanJournal, with the payloads around it.
func payloadsLongerThanScanBuffer(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	long := strings.Repeat("0123456789abcdef", 3*store.ScanBufferBytes/16) + "tail"
	appendDurably(t, log, "r1", long, "r3")
	shut(t, s, log)

	s = newStore(dir)
	scanned, torn, err := s.ScanJournal(isRecord)
	if err != nil || torn {
		t.Fatalf("ScanJournal: torn=%v err=%v", torn, err)
	}
	wantPayloads(t, "scan", scanned, "r1", long, "r3")
	got, log := open(t, s, isRecord)
	wantPayloads(t, "open", got, "r1", long, "r3")
	shut(t, s, log)
}

// Open calls valid exactly once per journal payload, in append order.
func validCalledOncePerPayload(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	appendDurably(t, log, "a", "b", "c")
	shut(t, s, log)

	var seen []string
	s = newStore(dir)
	_, log = open(t, s, func(p []byte) bool {
		seen = append(seen, string(p))
		return true
	})
	defer shut(t, s, log)
	if want := []string{"a", "b", "c"}; !slices.Equal(seen, want) {
		t.Errorf("valid saw %q, want %q", seen, want)
	}
}

// A final payload valid rejects is a torn tail: Open drops it, and the
// next append lands directly after the kept payloads.
func rejectedFinalPayloadDropped(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	appendDurably(t, log, "a", "b", "bad tail")
	shut(t, s, log)

	s = newStore(dir)
	got, log := open(t, s, isRecord)
	wantPayloads(t, "with a rejected tail", got, "a", "b")
	appendDurably(t, log, "c")
	shut(t, s, log)

	s = newStore(dir)
	got, log = open(t, s, acceptAll)
	wantPayloads(t, "after appending past the dropped tail", got, "a", "b", "c")
	shut(t, s, log)
}

// ScanJournal needs no Open, reports a torn tail without truncating it,
// and writes nothing: the writer's Stats and the directory's bytes are
// unchanged, and a second scan still sees the tail.
func scanJournalWritesNothing(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	w := newStore(dir)
	_, log := open(t, w, isRecord)
	defer shut(t, w, log)
	appendDurably(t, log, "a", "b", "bad tail")
	stats, err := w.Stats()
	if err != nil {
		t.Fatal(err)
	}
	size := dirBytes(t, dir)

	r := newStore(dir)
	got, torn, err := r.ScanJournal(isRecord)
	if err != nil {
		t.Fatalf("ScanJournal without Open: %v", err)
	}
	wantPayloads(t, "scan", got, "a", "b")
	if !torn {
		t.Error("scan did not report the rejected tail as torn")
	}
	got, torn, err = r.ScanJournal(acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	wantPayloads(t, "second scan", got, "a", "b", "bad tail")
	if torn {
		t.Error("second scan reports a torn tail although every payload is accepted")
	}
	if after, err := w.Stats(); err != nil || after != stats {
		t.Errorf("Stats after scans = %+v, %v; want %+v", after, err, stats)
	}
	if after := dirBytes(t, dir); after != size {
		t.Errorf("directory holds %d bytes after scans, %d before", after, size)
	}
}

// After ResetJournal and OpenJournal the journal is empty, the
// documents survive, and new appends are the whole journal.
func resetJournalEmptiesScan(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	appendDurably(t, log, "a", "b")
	if err := s.WriteDoc("d", []byte("<pxml/>"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncDocs(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetJournal(); err != nil {
		t.Fatalf("ResetJournal: %v", err)
	}
	log, err := s.OpenJournal()
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	got, torn, err := s.ScanJournal(acceptAll)
	if err != nil || torn {
		t.Fatalf("scan after reset: torn=%v err=%v", torn, err)
	}
	wantPayloads(t, "scan after reset", got)
	if data, err := s.ReadDoc("d"); err != nil || string(data) != "<pxml/>" {
		t.Errorf("document after reset = %q, %v", data, err)
	}
	appendDurably(t, log, "c")
	shut(t, s, log)

	s = newStore(dir)
	got, log = open(t, s, acceptAll)
	wantPayloads(t, "reopen after reset", got, "c")
	shut(t, s, log)
}

// Documents read back as last written, across a reopen; ListDocs is
// sorted and agrees with RemoveDoc.
func docRoundTrip(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	for _, d := range []struct{ name, data string }{
		{"beta", "b1"}, {"alpha", "a1"}, {"gamma", "g1"}, {"beta", "b2"},
	} {
		if err := s.WriteDoc(d.name, []byte(d.data), true); err != nil {
			t.Fatalf("WriteDoc(%s): %v", d.name, err)
		}
	}
	if err := s.RemoveDoc("gamma"); err != nil {
		t.Fatalf("RemoveDoc: %v", err)
	}
	if err := s.SyncDocs(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		names, err := s.ListDocs()
		if err != nil || !slices.Equal(names, []string{"alpha", "beta"}) {
			t.Errorf("%s: ListDocs = %q, %v; want [alpha beta]", when, names, err)
		}
		for name, want := range map[string]string{"alpha": "a1", "beta": "b2"} {
			if data, err := s.ReadDoc(name); err != nil || string(data) != want {
				t.Errorf("%s: ReadDoc(%s) = %q, %v; want %q", when, name, data, err, want)
			}
		}
	}
	check("before reopen")
	shut(t, s, log)
	s = newStore(dir)
	_, log = open(t, s, isRecord)
	check("after reopen")
	shut(t, s, log)
}

// A missing document is reported as fs.ErrNotExist by every accessor.
func missingDocIsNotExist(t *testing.T, newStore func(string) store.Store) {
	s := newStore(t.TempDir())
	_, log := open(t, s, isRecord)
	defer shut(t, s, log)
	if _, err := s.ReadDoc("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadDoc(missing) = %v, want fs.ErrNotExist", err)
	}
	if err := s.RemoveDoc("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("RemoveDoc(missing) = %v, want fs.ErrNotExist", err)
	}
}

// ReadViews reports ok=false and no error until WriteViews, then the
// newest snapshot, across a reopen.
func viewsAbsentBeforeFirstWrite(t *testing.T, newStore func(string) store.Store) {
	dir := t.TempDir()
	s := newStore(dir)
	_, log := open(t, s, isRecord)
	if data, ok, err := s.ReadViews(); ok || err != nil || data != nil {
		t.Errorf("ReadViews before any write = %q, %v, %v; want nil, false, nil", data, ok, err)
	}
	for _, v := range []string{`{"v":1}`, `{"v":2}`} {
		if err := s.WriteViews([]byte(v)); err != nil {
			t.Fatalf("WriteViews: %v", err)
		}
	}
	shut(t, s, log)
	s = newStore(dir)
	_, log = open(t, s, isRecord)
	defer shut(t, s, log)
	if data, ok, err := s.ReadViews(); !ok || err != nil || string(data) != `{"v":2}` {
		t.Errorf("ReadViews after reopen = %q, %v, %v; want the last snapshot", data, ok, err)
	}
}

// Stats names the backend, counts the documents, and never reports
// more live bytes than bytes.
func statsCountDocs(t *testing.T, newStore func(string) store.Store) {
	s := newStore(t.TempDir())
	_, log := open(t, s, isRecord)
	defer shut(t, s, log)
	appendDurably(t, log, "a")
	for _, name := range []string{"x", "y"} {
		if err := s.WriteDoc(name, []byte("content of "+name), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteDoc("x", []byte("newer content of x"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteViews([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != s.Backend() || st.Docs != 2 || st.Bytes <= 0 || st.LiveBytes <= 0 || st.LiveBytes > st.Bytes {
		t.Errorf("Stats = %+v, want backend %q, 2 docs, 0 < live bytes <= bytes", st, s.Backend())
	}
}

// Close releases the store and Open brings the same instance back, with
// its journal and documents, ready to append.
func openAfterClose(t *testing.T, newStore func(string) store.Store) {
	s := newStore(t.TempDir())
	_, log := open(t, s, isRecord)
	appendDurably(t, log, "a")
	if err := s.WriteDoc("d", []byte("v1"), true); err != nil {
		t.Fatal(err)
	}
	shut(t, s, log)

	got, log := open(t, s, isRecord)
	wantPayloads(t, "reopened instance", got, "a")
	if data, err := s.ReadDoc("d"); err != nil || string(data) != "v1" {
		t.Errorf("ReadDoc on the reopened instance = %q, %v", data, err)
	}
	appendDurably(t, log, "b")
	if err := s.WriteDoc("d", []byte("v2"), true); err != nil {
		t.Fatalf("WriteDoc on the reopened instance: %v", err)
	}
	shut(t, s, log)

	got, log = open(t, s, isRecord)
	defer shut(t, s, log)
	wantPayloads(t, "second reopen", got, "a", "b")
	if data, err := s.ReadDoc("d"); err != nil || string(data) != "v2" {
		t.Errorf("ReadDoc after the second reopen = %q, %v", data, err)
	}
}
