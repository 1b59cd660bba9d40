package warehouse

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fuzzy"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/xmlio"
)

// storeBackends are the storage backends every parameterized recovery
// and fault suite runs against. A backend that cannot pass the same
// crash sweeps as the filestore has no business shipping.
var storeBackends = []string{BackendFile, BackendKV}

// openB opens dir with the named backend over the real filesystem,
// failing the test on error.
func openB(t *testing.T, dir, backend string) *Warehouse {
	t.Helper()
	w, err := OpenBackend(dir, backend, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// content serializes a one-line fuzzy tree the way the warehouse
// journals it.
func content(t *testing.T, text string) string {
	t.Helper()
	data, err := xmlio.DocXML(fuzzy.MustParseTree(text, nil))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// wantDoc asserts the named document parses to the given content, or,
// with content "", that it does not exist.
func wantDoc(t *testing.T, w *Warehouse, name, want string) {
	t.Helper()
	got, err := w.Get(name)
	if want == "" {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want ErrNotFound", name, err)
		}
		return
	}
	if err != nil {
		t.Errorf("Get(%q): %v", name, err)
		return
	}
	wantTree, err := xmlio.ParseDoc([]byte(want))
	if err != nil {
		t.Fatal(err)
	}
	if !fuzzy.Equal(got.Root, wantTree.Root) {
		t.Errorf("doc %q = %s, want %s", name, fuzzy.Format(got.Root), fuzzy.Format(wantTree.Root))
	}
}

// forgeJournal writes the records into dir's journal via the real
// append path of the named backend, continuing sequence numbers above
// whatever the journal already holds (1..n on a fresh directory), and
// returns the assigned seqs. RefSeq values in the input index into the
// records slice is NOT supported — callers pass final RefSeq values
// directly.
func forgeJournal(t *testing.T, dir, backend string, records []Record) []int64 {
	t.Helper()
	st, err := newBackendStore(dir, backend, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	payloads, log, err := st.Open(validRecord)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := parseRecords(payloads)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(log, maxSeq(prior), &journalCounters{}, nil)
	seqs := make([]int64, len(records))
	for i, r := range records {
		seq, err := j.append(r)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// interleavedJournal builds the reference multi-document journal used
// by the scan and record-boundary tests. Mutations on A, B and C
// interleave their durable phases the way concurrent installs do. The
// final state: A keeps its create content (its update aborted), B is
// dropped, and C rolls back to its create content (its update is
// in-flight, never marked).
func interleavedJournal(t *testing.T) []Record {
	t.Helper()
	a1, a2 := content(t, "A(one)"), content(t, "A(two)")
	b1, b2 := content(t, "B(one)"), content(t, "B(two)")
	c1, c2 := content(t, "C(one)"), content(t, "C(two)")
	return []Record{
		{Op: OpCreate, Doc: "A", Content: a1},             // seq 1
		{Op: OpCreate, Doc: "B", Content: b1},             // seq 2
		{Op: OpCommit, RefSeq: 2},                         // B's create commits first
		{Op: OpCommit, RefSeq: 1},                         // then A's
		{Op: OpUpdate, Doc: "B", Tx: "<t/>", Content: b2}, // seq 5
		{Op: OpCreate, Doc: "C", Content: c1},             // seq 6
		{Op: OpCommit, RefSeq: 5},
		{Op: OpUpdate, Doc: "A", Tx: "<t/>", Content: a2}, // seq 8
		{Op: OpCommit, RefSeq: 6},
		{Op: OpAbort, RefSeq: 8},                          // A's update failed
		{Op: OpDrop, Doc: "B"},                            // seq 11
		{Op: OpUpdate, Doc: "C", Tx: "<t/>", Content: c2}, // seq 12, never marked
		{Op: OpCommit, RefSeq: 11},
	}
}

// TestRecoveryScanInterleaved: recovery pairs interleaved markers with
// their mutations by RefSeq across documents, replays each document's
// last committed state, and rolls back the one in-flight mutation.
func TestRecoveryScanInterleaved(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			forgeJournal(t, dir, backend, interleavedJournal(t))
			// Adversarial disk state: every swap ran before the crash.
			seedDocs(t, dir, backend, map[string]string{
				"A": content(t, "A(two)"), // aborted update's content (impossible in real
				// operation — apply failed means no swap — but replay must fix it anyway)
				"C": content(t, "C(two)"), // in-flight update swapped, marker lost
			}) // B: dropped, file absent

			w := openB(t, dir, backend)
			defer w.Close()
			wantDoc(t, w, "A", content(t, "A(one)"))
			wantDoc(t, w, "B", "")
			wantDoc(t, w, "C", content(t, "C(one)"))

			// The in-flight update on C must now carry an abort marker.
			recs, err := w.Journal()
			if err != nil {
				t.Fatal(err)
			}
			var resolved bool
			for _, r := range recs {
				if r.Op == OpAbort && r.RefSeq == 12 {
					resolved = true
				}
			}
			if !resolved {
				t.Error("in-flight mutation seq 12 not resolved with an abort marker")
			}
			if s := w.JournalStats(); s.RecoveryRollbacks != 1 {
				t.Errorf("rollbacks = %d, want 1", s.RecoveryRollbacks)
			}

			// A second open finds a fully marked journal and does nothing.
			w.Close()
			w2 := openB(t, dir, backend)
			defer w2.Close()
			if s := w2.JournalStats(); s.RecoveryRollbacks != 0 || s.RecoveryReplays != 0 || s.RecoveryRollforwards != 0 {
				t.Errorf("second open not a no-op: %+v", s)
			}
			wantDoc(t, w2, "A", content(t, "A(one)"))
			wantDoc(t, w2, "B", "")
			wantDoc(t, w2, "C", content(t, "C(one)"))
		})
	}
}

// seedDocs forces dir's document state to exactly files through the
// backend's own store API: every existing document is removed, then
// each entry is written with a durable sync — simulating an arbitrary
// set of completed swaps at crash time.
func seedDocs(t *testing.T, dir, backend string, files map[string]string) {
	t.Helper()
	st, err := newBackendStore(dir, backend, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	_, log, err := st.Open(validRecord)
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.ListDocs()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := st.RemoveDoc(name); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range files {
		if err := st.WriteDoc(name, []byte(c), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// tearJournalTail appends a torn record fragment to the backend's
// journal region: a partial JSON line for the filestore, a truncated
// frame header for the kv page file. Either is what a crash mid-append
// leaves behind.
func tearJournalTail(t *testing.T, dir, backend string) {
	t.Helper()
	path := filepath.Join(dir, journalFile)
	frag := []byte(`{"seq":99,"op":"upd`)
	if backend == BackendKV {
		path = filepath.Join(dir, kv.FileName)
		frag = []byte{1, 0x00, 0x03} // kindJournal frame cut inside its header
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frag); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// parsePrefix is the tests' independent journal reader: full
// newline-terminated lines that parse as records, stopping at the
// first fragment. Deliberately not readJournal, so an oracle bug there
// cannot hide a recovery bug.
func parsePrefix(data []byte) []Record {
	var records []Record
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break // torn tail (or empty final element)
		}
		body := strings.TrimSuffix(line, "\n")
		if body == "" {
			continue
		}
		var r Record
		if json.Unmarshal([]byte(body), &r) != nil {
			break
		}
		records = append(records, r)
	}
	return records
}

// kvParseJournalPrefix is the kv-backend counterpart of parsePrefix:
// an independent decoder of the page-file frame format (kind u8,
// keyLen u16, valLen u32, seq u64, key, val, crc32) that collects the
// journal payloads of every intact frame and stops at the first torn
// or corrupt one. Deliberately not the kv package's own scanner, so an
// oracle bug there cannot hide a recovery bug.
func kvParseJournalPrefix(data []byte) []Record {
	const headerLen, trailerLen = 15, 4
	var records []Record
	off := 0
	for off+headerLen <= len(data) {
		kind := data[off]
		if kind < 1 || kind > 4 {
			break
		}
		keyLen := int(binary.BigEndian.Uint16(data[off+1:]))
		valLen := int(binary.BigEndian.Uint32(data[off+3:]))
		end := off + headerLen + keyLen + valLen + trailerLen
		if end > len(data) {
			break
		}
		if crc32.ChecksumIEEE(data[off:end-trailerLen]) != binary.BigEndian.Uint32(data[end-trailerLen:]) {
			break
		}
		if kind == 1 { // journal frame
			var r Record
			if json.Unmarshal(data[off+headerLen+keyLen:end-trailerLen], &r) != nil {
				break
			}
			records = append(records, r)
		}
		off = end
	}
	return records
}

// expectState is the tests' independent model of scan-based recovery
// over a journal prefix: per document, the last committed mutation
// wins; documents whose only trace is an in-flight create end absent;
// documents with no trace keep their seeded file. The prefixes used
// here never produce an in-flight update/drop without a committed
// predecessor (the write-ahead ordering makes that impossible short of
// compaction), so the model omits the evidence rule.
func expectState(records []Record, seeded map[string]string) map[string]string {
	marked := make(map[int64]Op)
	for _, r := range records {
		if r.Op.Marker() {
			marked[r.RefSeq] = r.Op
		}
	}
	expect := make(map[string]string, len(seeded))
	for doc, c := range seeded {
		expect[doc] = c
	}
	type state struct {
		committed *Record
		pending   *Record
	}
	perDoc := make(map[string]*state)
	for i := range records {
		r := records[i]
		if !r.Op.Mutation() {
			continue
		}
		ds := perDoc[r.Doc]
		if ds == nil {
			ds = &state{}
			perDoc[r.Doc] = ds
		}
		switch marked[r.Seq] {
		case OpCommit:
			ds.committed = &records[i]
		case OpAbort:
		default:
			ds.pending = &records[i]
		}
	}
	for doc, ds := range perDoc {
		switch {
		case ds.committed != nil && ds.committed.Op == OpDrop:
			delete(expect, doc)
		case ds.committed != nil:
			expect[doc] = ds.committed.Content
		case ds.pending != nil && ds.pending.Op == OpCreate:
			delete(expect, doc)
		}
	}
	return expect
}

// TestRecoveryRecordBoundaries kills the interleaved journal at every
// record boundary — every prefix a crash between appends could leave —
// with the disk files seeded as if every surviving mutation's swap had
// run, and checks recovery lands each document exactly on the model's
// prediction. Each recovered warehouse is then reopened to verify
// recovery converged (no further rollbacks or replays).
func TestRecoveryRecordBoundaries(t *testing.T) {
	full := interleavedJournal(t)
	for _, backend := range storeBackends {
		for cut := 0; cut <= len(full); cut++ {
			t.Run(fmt.Sprintf("%s/records=%d", backend, cut), func(t *testing.T) {
				dir := t.TempDir()
				forgeJournal(t, dir, backend, full[:cut])
				// Seed: every mutation in the prefix applied its file
				// effect (the most advanced crash state possible).
				seeded := make(map[string]string)
				for _, r := range full[:cut] {
					switch r.Op {
					case OpCreate, OpUpdate:
						seeded[r.Doc] = r.Content
					case OpDrop:
						delete(seeded, r.Doc)
					}
				}
				seedDocs(t, dir, backend, seeded)

				// The oracle sees the same prefix with the seqs the forge
				// assigned (1..cut on a fresh directory).
				prefix := append([]Record(nil), full[:cut]...)
				for i := range prefix {
					prefix[i].Seq = int64(i + 1)
				}
				expect := expectState(prefix, seeded)

				w := openB(t, dir, backend)
				for _, doc := range []string{"A", "B", "C"} {
					wantDoc(t, w, doc, expect[doc])
				}
				w.Close()

				w2 := openB(t, dir, backend)
				defer w2.Close()
				if s := w2.JournalStats(); s.RecoveryRollbacks != 0 || s.RecoveryReplays != 0 || s.RecoveryRollforwards != 0 {
					t.Errorf("recovery did not converge after one open: %+v", s)
				}
				for _, doc := range []string{"A", "B", "C"} {
					wantDoc(t, w2, doc, expect[doc])
				}
			})
		}
	}
}

// TestRecoveryByteBoundaries truncates a synthetic single-document
// journal at every byte boundary of its final records and asserts
// recovery never loses a committed mutation nor resurrects an aborted
// one: whatever the cut, the document lands exactly on the model's
// prediction — the last committed state surviving the cut. For the kv
// backend the document page shares the truncated file with the
// journal frames, so the page is seeded first and only cuts at or
// past its end are crash-reachable (the page was written and synced
// before the journal frames existed).
func TestRecoveryByteBoundaries(t *testing.T) {
	v1, v2, v3 := content(t, "D(one)"), content(t, "D(two)"), content(t, "D(three)")
	scenarios := []struct {
		name  string
		final Op     // marker resolving the last update
		seed  string // doc file at crash time
	}{
		// Committed final update: the swap ran before the marker.
		{"final-commit", OpCommit, v3},
		// Aborted final update: the apply failed, file untouched.
		{"final-abort", OpAbort, v2},
	}
	journalRecords := func(final Op) []Record {
		return []Record{
			{Op: OpCreate, Doc: "D", Content: v1}, // seq 1
			{Op: OpCommit, RefSeq: 1},
			{Op: OpUpdate, Doc: "D", Tx: "<t/>", Content: v2}, // seq 3
			{Op: OpCommit, RefSeq: 3},
			{Op: OpUpdate, Doc: "D", Tx: "<t/>", Content: v3}, // seq 5
			{Op: final, RefSeq: 5},
		}
	}
	checkCut := func(t *testing.T, dir, backend string, cut int, expect map[string]string) {
		t.Helper()
		w := openB(t, dir, backend)
		got, err := w.Get("D")
		w.Close()
		want := expect["D"]
		if want == "" {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut=%d: Get = %v, want ErrNotFound", cut, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantTree, err := xmlio.ParseDoc([]byte(want))
		if err != nil {
			t.Fatal(err)
		}
		if !fuzzy.Equal(got.Root, wantTree.Root) {
			t.Fatalf("cut=%d: doc = %s, want %s", cut, fuzzy.Format(got.Root), fuzzy.Format(wantTree.Root))
		}
	}
	for _, sc := range scenarios {
		t.Run("filestore/"+sc.name, func(t *testing.T) {
			base := t.TempDir()
			forgeJournal(t, base, BackendFile, journalRecords(sc.final))
			full, err := os.ReadFile(filepath.Join(base, journalFile))
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut <= len(full); cut++ {
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, docsDir), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, journalFile), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				seeded := map[string]string{"D": sc.seed}
				seedDocs(t, dir, BackendFile, seeded)
				expect := expectState(parsePrefix(full[:cut]), seeded)
				checkCut(t, dir, BackendFile, cut, expect)
			}
		})
		t.Run("kv/"+sc.name, func(t *testing.T) {
			base := t.TempDir()
			// Page first, journal frames after: a crash can then tear the
			// file anywhere past the synced page.
			seedDocs(t, base, BackendKV, map[string]string{"D": sc.seed})
			pageInfo, err := os.Stat(filepath.Join(base, kv.FileName))
			if err != nil {
				t.Fatal(err)
			}
			docEnd := int(pageInfo.Size())
			forgeJournal(t, base, BackendKV, journalRecords(sc.final))
			full, err := os.ReadFile(filepath.Join(base, kv.FileName))
			if err != nil {
				t.Fatal(err)
			}
			for cut := docEnd; cut <= len(full); cut++ {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, kv.FileName), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				seeded := map[string]string{"D": sc.seed}
				expect := expectState(kvParseJournalPrefix(full[:cut]), seeded)
				checkCut(t, dir, BackendKV, cut, expect)
			}
		})
	}
}

// TestRecoveryOrphanEvidence covers in-flight mutations whose
// committed predecessor was compacted out of the journal: the
// pre-state content is unrecoverable, so recovery decides by on-disk
// evidence — roll forward when the apply visibly completed, roll back
// when the file is untouched.
func TestRecoveryOrphanEvidence(t *testing.T) {
	v1, v2 := content(t, "D(one)"), content(t, "D(two)")
	cases := []struct {
		name        string
		op          Op
		fileAfter   string // doc file at crash time ("" = absent)
		wantDoc     string // expected content after recovery ("" = absent)
		wantMarker  Op
		rollforward bool
	}{
		{"update-swapped", OpUpdate, v2, v2, OpCommit, true},
		{"update-untouched", OpUpdate, v1, v1, OpAbort, false},
		{"drop-removed", OpDrop, "", "", OpCommit, true},
		{"drop-untouched", OpDrop, v1, v1, OpAbort, false},
	}
	for _, backend := range storeBackends {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				// A compacted warehouse: the document exists on disk with
				// no journal trace.
				w := openB(t, dir, backend)
				doc, err := xmlio.ParseDoc([]byte(v1))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Create("D", doc); err != nil {
					t.Fatal(err)
				}
				if err := w.Compact(); err != nil {
					t.Fatal(err)
				}
				w.Close()

				// Forge the orphan in-flight mutation and the crash-time
				// file state.
				rec := Record{Op: tc.op, Doc: "D"}
				if tc.op == OpUpdate {
					rec.Content = v2
				}
				seqs := forgeJournal(t, dir, backend, []Record{rec})
				files := map[string]string{}
				if tc.fileAfter != "" {
					files["D"] = tc.fileAfter
				}
				seedDocs(t, dir, backend, files)

				w2 := openB(t, dir, backend)
				defer w2.Close()
				wantDoc(t, w2, "D", tc.wantDoc)
				recs, err := w2.Journal()
				if err != nil {
					t.Fatal(err)
				}
				last := recs[len(recs)-1]
				if last.Op != tc.wantMarker || last.RefSeq != seqs[0] {
					t.Errorf("resolution = %s ref %d, want %s ref %d", last.Op, last.RefSeq, tc.wantMarker, seqs[0])
				}
				s := w2.JournalStats()
				if tc.rollforward && (s.RecoveryRollforwards != 1 || s.RecoveryRollbacks != 0) {
					t.Errorf("counters = %+v, want 1 rollforward", s)
				}
				if !tc.rollforward && (s.RecoveryRollbacks != 1 || s.RecoveryRollforwards != 0) {
					t.Errorf("counters = %+v, want 1 rollback", s)
				}
			})
		}
	}
}

// TestRecoveryOrphanCreateRollsBack: an in-flight create on an empty
// journal always rolls back — its pre-state is "absent" by definition.
// A marker that names no mutation (RefSeq 0, malformed) resolves
// nothing, so the create it follows is just as in-flight.
func TestRecoveryOrphanCreateRollsBack(t *testing.T) {
	v1 := content(t, "D(one)")
	cases := []struct {
		name    string
		records []Record
	}{
		{"unmarked", []Record{{Op: OpCreate, Doc: "D", Content: v1}}},
		{"marker-without-ref", []Record{{Op: OpCreate, Doc: "D", Content: v1}, {Op: OpCommit}}},
	}
	for _, backend := range storeBackends {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				forgeJournal(t, dir, backend, tc.records)
				seedDocs(t, dir, backend, map[string]string{"D": v1}) // the swap ran

				w := openB(t, dir, backend)
				defer w.Close()
				wantDoc(t, w, "D", "")
				if s := w.JournalStats(); s.RecoveryRollbacks != 1 {
					t.Errorf("rollbacks = %d, want 1", s.RecoveryRollbacks)
				}
			})
		}
	}
}

// TestRecoveryRepairsTornDocFile pins the deferred-fsync contract:
// steady-state file swaps skip their own fsync because the journal is
// the durable copy, so a crash that tears the rename (here simulated
// by truncating the file to garbage) must be repaired by replay on the
// next open.
func TestRecoveryRepairsTornDocFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("doc", slide12()); err != nil {
		t.Fatal(err)
	}
	tx := update.New(tpwj.MustParseQuery("A $a"), 1,
		update.Insert("a", tree.MustParse("N")))
	if _, err := w.Update("doc", tx); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the file: a crash mid-rename on a journaling filesystem can
	// expose an empty or partial file when the data was never fsynced.
	if err := os.Truncate(filepath.Join(dir, docsDir, "doc"+docExt), 7); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Get("doc")
	if err != nil {
		t.Fatalf("torn document not repaired: %v", err)
	}
	found := false
	got.Root.Walk(func(n *fuzzy.Node) bool {
		if n.Label == "N" {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("committed update lost in repair: %s", fuzzy.Format(got.Root))
	}
	if s := w2.JournalStats(); s.RecoveryReplays != 1 {
		t.Errorf("recovery replays = %d, want 1", s.RecoveryReplays)
	}
}

// TestTornTailTruncatedOnOpen pins the glue-corruption fix: a torn
// tail is physically truncated before fresh appends, so a record
// written after the crash never concatenates onto the fragment and
// every post-crash record survives the next reopen.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			w := openB(t, dir, backend)
			if err := w.Create("doc", slide12()); err != nil {
				t.Fatal(err)
			}
			w.Close()

			tearJournalTail(t, dir, backend)

			// Reopen and mutate: the new records must land on a clean boundary.
			w2 := openB(t, dir, backend)
			if err := w2.Create("doc2", slide12()); err != nil {
				t.Fatal(err)
			}
			w2.Close()

			w3 := openB(t, dir, backend)
			defer w3.Close()
			got, err := w3.Get("doc2")
			if err != nil {
				t.Fatalf("post-crash document lost: %v", err)
			}
			if !fuzzy.Equal(got.Root, slide12().Root) {
				t.Errorf("doc2 = %s", fuzzy.Format(got.Root))
			}
			recs, err := w3.Journal()
			if err != nil {
				t.Fatal(err)
			}
			// create+commit for each document; the torn fragment is gone.
			if len(recs) != 4 {
				t.Fatalf("journal records = %d, want 4: %+v", len(recs), recs)
			}
			for _, r := range recs {
				if !r.Op.Mutation() && !r.Op.Marker() {
					t.Errorf("corrupt record survived: %+v", r)
				}
			}
		})
	}
}

// TestInspectJournal checks the read-only summary behind the
// pxwarehouse verify-journal subcommand: counts, pending detection,
// torn tails, and structural problems.
func TestInspectJournal(t *testing.T) {
	// InspectJournal auto-detects the backend from the directory layout,
	// so both backends go through the same entry point.
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			forgeJournal(t, dir, backend, interleavedJournal(t))

			sum, err := InspectJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Records != 13 || sum.Mutations != 7 || sum.Committed != 5 || sum.Aborted != 1 {
				t.Errorf("summary = %+v, want 13 records, 7 mutations, 5 committed, 1 aborted", sum)
			}
			if len(sum.Pending) != 1 || sum.Pending[0].Seq != 12 || sum.Pending[0].Doc != "C" {
				t.Errorf("pending = %+v, want seq 12 on C", sum.Pending)
			}
			if sum.TornTail || len(sum.Problems) != 0 {
				t.Errorf("clean journal reported torn=%v problems=%v", sum.TornTail, sum.Problems)
			}

			// Torn tail.
			tearJournalTail(t, dir, backend)
			sum, err = InspectJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.TornTail || sum.Records != 13 {
				t.Errorf("torn tail not detected: %+v", sum)
			}
		})
	}

	// Structural problems (filestore raw file): out-of-order seq, dangling marker ref,
	// duplicate marker, unknown op, marker without a ref.
	bad := t.TempDir()
	lines := []string{
		`{"seq":1,"op":"create","doc":"X","content":"<pxml><A/></pxml>"}`,
		`{"seq":1,"op":"commit","ref":1}`,  // seq not increasing
		`{"seq":3,"op":"commit","ref":99}`, // names no mutation
		`{"seq":4,"op":"abort","ref":1}`,   // duplicate marker for 1
		`{"seq":5,"op":"frobnicate"}`,      // unknown op
		`{"seq":6,"op":"create","doc":"Y","content":"<pxml><A/></pxml>"}`,
		`{"seq":7,"op":"commit"}`, // no ref: resolves nothing, Y stays pending
	}
	if err := os.MkdirAll(filepath.Join(bad, docsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, journalFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := InspectJournal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Problems) != 5 {
		t.Errorf("problems = %v, want 5", sum.Problems)
	}
	if len(sum.Pending) != 1 || sum.Pending[0].Seq != 6 {
		t.Errorf("pending = %+v, want the create of Y (seq 6)", sum.Pending)
	}

	// A missing journal is an empty summary, not an error.
	sum, err = InspectJournal(t.TempDir())
	if err != nil || sum.Records != 0 {
		t.Errorf("InspectJournal(empty) = %+v, %v", sum, err)
	}
}

// TestGroupCommitBatching: concurrent mutations on distinct documents
// share fsyncs — the batch counter stays at or below the append
// counter, and the append counter is exact.
func TestGroupCommitBatching(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			testGroupCommitBatching(t, backend)
		})
	}
}

func testGroupCommitBatching(t *testing.T, backend string) {
	w := openB(t, t.TempDir(), backend)
	defer w.Close()
	const docs = 8
	for i := 0; i < docs; i++ {
		if err := w.Create(fmt.Sprintf("doc%d", i), stressDoc()); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 5
	tx := update.New(tpwj.MustParseQuery("A $a"), 0.5,
		update.Insert("a", tree.MustParse("N")))
	var wg sync.WaitGroup
	for i := 0; i < docs; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := w.Update(name, tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("doc%d", i))
	}
	wg.Wait()

	s := w.JournalStats()
	want := int64(2*docs + 2*docs*rounds) // (record+marker) per create and update
	if s.Appends != want {
		t.Errorf("appends = %d, want %d", s.Appends, want)
	}
	if s.SyncBatches <= 0 || s.SyncBatches > s.Appends {
		t.Errorf("sync batches = %d, want in (0, %d]", s.SyncBatches, s.Appends)
	}
}
