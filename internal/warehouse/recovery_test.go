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

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/xmlio"
	"repro/internal/xupdate"
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
// returns the assigned seqs. A marker names its target relative to
// itself: RefSeq -k is the record forged k places before it.
func forgeJournal(t *testing.T, dir, backend string, records []Record) []int64 {
	t.Helper()
	st, err := newBackendStore(dir, backend, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	prior, log, err := openRecords(st)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(log, maxSeq(prior), &journalCounters{}, nil)
	seqs := make([]int64, len(records))
	for i, r := range records {
		if r.RefSeq < 0 {
			r.RefSeq = seqs[i+int(r.RefSeq)]
		}
		seq, err := j.append(nil, r)
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
// by the scan and record-boundary tests: mutations on A, B, C and D
// interleaved the way concurrent installs interleave them, a view
// registration, a create and a drop whose store step failed (each
// withdrawn by its abort marker), one commit marker as earlier versions
// wrote them, and at the tail a whole update nobody acknowledged. In
// between, four at a time, run the records of E, whose journal crosses
// fullStateEvery (tailJournal). The final state: A is at its update
// (its drop was aborted) and keeps its view, B is dropped, C is at the
// tail update, D never came to exist, E is at its last transaction
// replayed over its second full state.
func interleavedJournal(t *testing.T) []Record {
	t.Helper()
	a1, a2 := content(t, "A(one)"), content(t, "A(two)")
	b1, b2 := content(t, "B(one)"), content(t, "B(two)")
	c1, c2 := content(t, "C(one)"), content(t, "C(two)")
	e := tailJournal(t)
	var out []Record
	for _, r := range []Record{
		{Op: OpCreate, Doc: "A", Content: a1},
		{Op: OpCreate, Doc: "B", Content: b1},
		{Op: OpCommit, RefSeq: -1}, // legacy marker: ignored
		{Op: OpUpdate, Doc: "B", Tx: "<t/>", Content: b2},
		{Op: OpCreate, Doc: "C", Content: c1},
		{Op: OpViewRegister, Doc: "A", View: "v", Query: "A $a"},
		{Op: OpUpdate, Doc: "A", Tx: "<t/>", Content: a2},
		{Op: OpCreate, Doc: "D", Content: content(t, "D(one)")}, // page write failed
		{Op: OpAbort, RefSeq: -1},
		{Op: OpDrop, Doc: "B"},
		{Op: OpDrop, Doc: "A"}, // removal failed
		{Op: OpAbort, RefSeq: -1},
		{Op: OpUpdate, Doc: "C", Tx: "<t/>", Content: c2}, // unacknowledged tail
	} {
		// A marker stays right behind the record it names.
		if r.Op != OpAbort && r.Op != OpCommit {
			n := min(4, len(e))
			out, e = append(out, e[:n]...), e[n:]
		}
		out = append(out, r)
	}
	return out
}

// numbered returns the records as forgeJournal writes them into a
// fresh directory: seqs 1..n, relative marker refs resolved.
func numbered(records []Record) []Record {
	out := append([]Record(nil), records...)
	for i := range out {
		out[i].Seq = int64(i + 1)
		if out[i].RefSeq < 0 {
			out[i].RefSeq += out[i].Seq
		}
	}
	return out
}

// seedDocs forces dir's document state to exactly files through the
// backend's own store API: every existing document is removed, then
// each entry is written with a durable sync — simulating an arbitrary
// set of stored pages at crash time.
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

// journalFilePath is the file that holds the backend's journal.
func journalFilePath(dir, backend string) string {
	if backend == BackendKV {
		return filepath.Join(dir, kv.FileName)
	}
	return filepath.Join(dir, journalFile)
}

// tearJournalTail appends a torn record fragment to the backend's
// journal region: a partial JSON line for the filestore, a truncated
// frame header for the kv page file. Either is what a crash mid-append
// leaves behind.
func tearJournalTail(t *testing.T, dir, backend string) {
	t.Helper()
	frag := []byte(`{"seq":99,"op":"upd`)
	if backend == BackendKV {
		frag = []byte{1, 0x00, 0x03} // kindJournal frame cut inside its header
	}
	f, err := os.OpenFile(journalFilePath(dir, backend), os.O_APPEND|os.O_WRONLY, 0o644)
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

// modelApply is the tests' own replay of one create or update record
// over a document's state: a record carrying content is the state; a
// Tx-only update parses the state afresh and re-applies the record's
// simplification, or its transaction through xupdate.ParseTransaction
// and ApplyFuzzy with the record's event pinned. It shares no code with
// recover's replay above those primitives. Results are memoized: the
// sweeps apply the same records to the same states once per cut.
func modelApply(t *testing.T, state string, r Record) string {
	t.Helper()
	if r.Content != "" {
		return r.Content
	}
	key := [3]string{state, r.Tx, r.Event}
	if next, ok := modelMemo.Load(key); ok {
		return next.(string)
	}
	ft, err := xmlio.ParseDoc([]byte(state))
	if err != nil {
		t.Fatalf("model: state of %q before seq %d: %v", r.Doc, r.Seq, err)
	}
	if r.Tx == simplifyTx {
		ft.Simplify()
	} else {
		tx, err := xupdate.ParseTransaction([]byte(r.Tx))
		if err != nil {
			t.Fatalf("model: seq %d: %v", r.Seq, err)
		}
		tx.ConfEvent = event.ID(r.Event)
		if ft, _, err = tx.ApplyFuzzy(ft); err != nil {
			t.Fatalf("model: seq %d: %v", r.Seq, err)
		}
	}
	data, err := xmlio.DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	modelMemo.Store(key, string(data))
	return string(data)
}

// modelMemo maps [state, Tx, Event] to modelApply's result.
var modelMemo sync.Map

// expectState is the tests' independent model of recovery over a
// journal prefix, the whole contract in a dozen lines: per document,
// the mutation records that no abort names, applied in journal order
// (modelApply), are the state; a document no such record mentions
// keeps its stored page.
func expectState(t *testing.T, records []Record, stored map[string]string) map[string]string {
	t.Helper()
	aborted := make(map[int64]bool)
	for _, r := range records {
		if r.Op == OpAbort {
			aborted[r.RefSeq] = true
		}
	}
	expect := make(map[string]string, len(stored))
	for doc, c := range stored {
		expect[doc] = c
	}
	for _, r := range records {
		switch {
		case !r.Op.Mutation() || aborted[r.Seq]:
		case r.Op == OpDrop:
			delete(expect, r.Doc)
		default:
			expect[r.Doc] = modelApply(t, expect[r.Doc], r)
		}
	}
	return expect
}

// expectViews is the same model for the view definitions: view records
// no abort names, in journal order, a create or a drop resetting its
// document's views.
func expectViews(records []Record) map[string][]string {
	aborted := make(map[int64]bool)
	for _, r := range records {
		if r.Op == OpAbort {
			aborted[r.RefSeq] = true
		}
	}
	views := make(map[string][]string)
	for _, r := range records {
		switch {
		case aborted[r.Seq]:
		case r.Op == OpCreate, r.Op == OpDrop:
			delete(views, r.Doc)
		case r.Op == OpViewRegister:
			views[r.Doc] = append(views[r.Doc], r.View)
		case r.Op == OpViewDrop:
			kept := views[r.Doc][:0]
			for _, v := range views[r.Doc] {
				if v != r.View {
					kept = append(kept, v)
				}
			}
			views[r.Doc] = kept
		}
	}
	return views
}

// storedPages lists the stored-page states a crash can leave under the
// records, from as stale as possible to as advanced as possible: no
// page at all (none of the unsynced writes reached the disk), each
// document's page as its create wrote it (updates never touch pages,
// drops not yet removed), and every record's effect in place (as a
// checkpoint or an earlier recovery leaves it, Tx-only updates replayed
// by modelApply). A create or drop that an abort names failed in the
// store, so it changed no page.
func storedPages(t *testing.T, records []Record) map[string]map[string]string {
	t.Helper()
	aborted := make(map[int64]bool)
	for _, r := range records {
		if r.Op == OpAbort {
			aborted[r.RefSeq] = true
		}
	}
	created, advanced := make(map[string]string), make(map[string]string)
	for _, r := range records {
		if !r.Op.Mutation() || aborted[r.Seq] {
			continue
		}
		switch r.Op {
		case OpCreate:
			created[r.Doc], advanced[r.Doc] = r.Content, r.Content
		case OpUpdate:
			advanced[r.Doc] = modelApply(t, advanced[r.Doc], r)
		case OpDrop:
			delete(advanced, r.Doc)
		}
	}
	return map[string]map[string]string{"absent": {}, "created": created, "advanced": advanced}
}

// checkRecovered opens dir, requires every document and view of the
// models, requires that recovery appended nothing — the journal still
// reads as records — and that a second open finds nothing to replay.
func checkRecovered(t *testing.T, dir, backend string, records []Record, docs map[string]string, views map[string][]string, names ...string) {
	t.Helper()
	w := openB(t, dir, backend)
	for _, doc := range names {
		wantDoc(t, w, doc, docs[doc])
		if _, ok := docs[doc]; !ok {
			continue
		}
		defs, err := w.ListViews(doc)
		if err != nil {
			t.Errorf("ListViews(%q): %v", doc, err)
		}
		var got []string
		for _, d := range defs {
			got = append(got, d.Name)
		}
		if strings.Join(got, ",") != strings.Join(views[doc], ",") {
			t.Errorf("views of %q = %v, want %v", doc, got, views[doc])
		}
	}
	if a := counter(w, "px_journal_appends_total"); a != 0 {
		t.Errorf("recovery appended %d records", a)
	}
	got, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Errorf("journal holds %d records after recovery, want the %d it held before", len(got), len(records))
	}
	for i := range got {
		if i < len(records) && got[i] != records[i] {
			t.Errorf("journal record %d = %+v after recovery, was %+v", i, got[i], records[i])
		}
	}
	w.Close()

	w2 := openB(t, dir, backend)
	defer w2.Close()
	if r := counter(w2, "px_recovery_replays_total"); r != 0 {
		t.Errorf("recovery did not converge after one open: %d replays", r)
	}
	for _, doc := range names {
		wantDoc(t, w2, doc, docs[doc])
	}
}

// TestRecoveryScanInterleaved: recovery reads interleaved records of
// several documents, takes each document's last unaborted record as
// its state, honours both abort markers, ignores the legacy commit
// marker, rolls the unacknowledged tail forward, and repairs pages that
// no crash could have produced.
func TestRecoveryScanInterleaved(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			forgeJournal(t, dir, backend, interleavedJournal(t))
			records := numbered(interleavedJournal(t))
			// Adversarial pages: stale where the journal moved on, present
			// where it dropped, and content no record ever held.
			seedDocs(t, dir, backend, map[string]string{
				"A": content(t, "A(one)"),
				"B": content(t, "B(two)"),
				"C": content(t, "C(nonsense)"),
			})
			checkRecovered(t, dir, backend, records, expectState(t, records, nil), expectViews(records), "A", "B", "C", "D", "E")

			w := openB(t, dir, backend)
			defer w.Close()
			wantDoc(t, w, "A", content(t, "A(two)"))
			wantDoc(t, w, "B", "")
			wantDoc(t, w, "C", content(t, "C(two)"))
			wantDoc(t, w, "D", "")
		})
	}
}

// TestRecoveryRecordBoundaries kills the interleaved journal at every
// record boundary — every prefix a crash between appends could leave —
// over each stored-page state such a crash could leave (storedPages),
// and checks recovery lands each document and view exactly on the
// model's prediction for the surviving prefix, appends nothing, and has
// converged after one open.
func TestRecoveryRecordBoundaries(t *testing.T) {
	full := interleavedJournal(t)
	for _, backend := range storeBackends {
		for cut := 0; cut <= len(full); cut++ {
			t.Run(fmt.Sprintf("%s/records=%d", backend, cut), func(t *testing.T) {
				prefix := numbered(full)[:cut]
				for name, pages := range storedPages(t, prefix) {
					dir := t.TempDir()
					forgeJournal(t, dir, backend, full[:cut])
					seedDocs(t, dir, backend, pages)
					t.Log("stored pages:", name)
					checkRecovered(t, dir, backend, prefix, expectState(t, prefix, pages), expectViews(prefix), "A", "B", "C", "D", "E")
				}
			})
		}
	}
}

// TestRecoveryByteBoundaries truncates a single-document journal at
// every byte boundary and asserts recovery never loses a whole record
// nor resurrects an aborted one: whatever the cut, the document lands
// exactly on the model's prediction for the records that survive it
// whole. Two journals are in the format earlier versions wrote — every
// mutation followed by a commit marker, which must change nothing —
// ending in a commit or in an abort of the last update; their stored
// page is seeded both ways, as its create wrote it and as advanced as
// the full journal. The third, tail-crossing, is one this version
// writes (crossingJournal): its cuts run over every byte of the
// full-state record that ends the deepest tail of Tx-only records and
// of the Tx-only record after it, so recovery replays fullStateEvery-1
// transactions onto the create or none onto the new full state, over
// the page a kill leaves — as the create wrote it. For the kv backend
// the page shares the truncated file with the journal frames; it sits
// where a create puts it, right behind the create's record, so early
// cuts take the page with them.
func TestRecoveryByteBoundaries(t *testing.T) {
	v1, v2, v3 := content(t, "D(one)"), content(t, "D(two)"), content(t, "D(three)")
	scenarios := []struct {
		name  string
		final Op // marker following the last update
	}{
		{"final-commit", OpCommit},
		{"final-abort", OpAbort},
	}
	create := []Record{{Op: OpCreate, Doc: "D", Content: v1}} // seq 1
	rest := func(final Op) []Record {
		return []Record{
			{Op: OpCommit, RefSeq: 1},
			{Op: OpUpdate, Doc: "D", Tx: "<t/>", Content: v2}, // seq 3
			{Op: OpCommit, RefSeq: 3},
			{Op: OpUpdate, Doc: "D", Tx: "<t/>", Content: v3}, // seq 5
			{Op: final, RefSeq: 5},
		}
	}
	// checkCut requires the state of the records that survive the cut
	// whole, D being the only document.
	checkCut := func(t *testing.T, dir, backend string, cut int, records []Record, stored map[string]string) {
		t.Helper()
		checkRecovered(t, dir, backend, records, expectState(t, records, stored), nil, "D")
		if t.Failed() {
			t.Fatalf("at cut=%d", cut)
		}
	}
	// sweepFile cuts a filestore journal at every byte from the offset
	// on, over each of the stored pages.
	sweepFile := func(t *testing.T, full []byte, from int, pages ...string) {
		for cut := from; cut <= len(full); cut++ {
			records := parsePrefix(full[:cut])
			for _, page := range pages {
				if len(records) == 0 {
					page = "" // no page can predate its create record
				}
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, docsDir), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, journalFile), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				stored := map[string]string{}
				if page != "" {
					stored["D"] = page
					if err := os.WriteFile(filepath.Join(dir, docsDir, "D"+docExt), []byte(page), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				checkCut(t, dir, BackendFile, cut, records, stored)
			}
		}
	}
	// sweepKV cuts the kv page file in base at every byte from the
	// offset on.
	sweepKV := func(t *testing.T, base string, from int) {
		full, err := os.ReadFile(filepath.Join(base, kv.FileName))
		if err != nil {
			t.Fatal(err)
		}
		for cut := from; cut <= len(full); cut++ {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, kv.FileName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// The page frame follows the create record, so whenever
			// it survives the cut the journal decides D anyway.
			checkCut(t, dir, BackendKV, cut, kvParseJournalPrefix(full[:cut]), nil)
		}
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run("filestore/"+sc.name, func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			forgeJournal(t, base, BackendFile, append(create, rest(sc.final)...))
			full, err := os.ReadFile(filepath.Join(base, journalFile))
			if err != nil {
				t.Fatal(err)
			}
			sweepFile(t, full, 0, v1, v3)
		})
		t.Run("kv/"+sc.name, func(t *testing.T) {
			t.Parallel()
			for _, page := range []string{v1, v3} {
				base := t.TempDir()
				forgeJournal(t, base, BackendKV, create)
				seedDocs(t, base, BackendKV, map[string]string{"D": page})
				forgeJournal(t, base, BackendKV, rest(sc.final))
				sweepKV(t, base, 0)
			}
		})
	}

	crossing := crossingJournal(t)
	head, last := crossing[:fullStateEvery], crossing[fullStateEvery:]
	page := crossing[0].Content
	fileSize := func(t *testing.T, path string) int {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(info.Size())
	}
	t.Run("filestore/tail-crossing", func(t *testing.T) {
		t.Parallel()
		base := t.TempDir()
		forgeJournal(t, base, BackendFile, head)
		from := fileSize(t, filepath.Join(base, journalFile))
		forgeJournal(t, base, BackendFile, last)
		full, err := os.ReadFile(filepath.Join(base, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		sweepFile(t, full, from, page)
	})
	t.Run("kv/tail-crossing", func(t *testing.T) {
		t.Parallel()
		base := t.TempDir()
		forgeJournal(t, base, BackendKV, head[:1])
		seedDocs(t, base, BackendKV, map[string]string{"D": page})
		forgeJournal(t, base, BackendKV, head[1:])
		from := fileSize(t, filepath.Join(base, kv.FileName))
		forgeJournal(t, base, BackendKV, last)
		sweepKV(t, base, from)
	})
}

// crossingJournal returns the records a live warehouse journals for a
// document D kept tiny, so that a byte sweep over its full state stays
// short: its create A(B), fullStateEvery-1 transactions alternating an
// insert of G(L:x) at confidence 0.9 (minting an event) with its
// certain delete, a Simplify — the full-state record, dropping every
// event but the last — and an insert at 0.8, whose event the live
// counter mints past the dropped ones. Seqs are cleared.
func crossingJournal(t *testing.T) []Record {
	t.Helper()
	w := openTemp(t)
	if err := w.Create("D", fuzzy.MustParseTree("A(B)", nil)); err != nil {
		t.Fatal(err)
	}
	insert := func(conf float64) *update.Transaction {
		return update.New(tpwj.MustParseQuery("A $a"), conf, update.Insert("a", tree.MustParse("G(L:x)")))
	}
	for i := 1; i < fullStateEvery; i++ {
		tx := insert(0.9)
		if i%2 == 0 {
			tx = update.New(tpwj.MustParseQuery("A(G $g)"), 1, update.Delete("g"))
		}
		if _, err := w.Update("D", tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Simplify("D"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Update("D", insert(0.8)); err != nil {
		t.Fatal(err)
	}
	recs, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if full := i%fullStateEvery == 0; (r.Content != "") != full {
			t.Fatalf("record %d carries a full state: %v, want %v", i, !full, full)
		}
		recs[i].Seq = 0
	}
	return recs
}

// tailRow is one line of the table "a whole unacknowledged record
// rolls forward, a torn one vanishes": document D is brought to a base
// state through the warehouse, a tail is forged behind it as a crash
// would leave it — whole, then with its last record torn — over a
// given stored page, and recovery must land D on want, respectively
// wantTorn. Rows are filed under the tests that covered the same
// crashes for the two-record protocol, where an unmarked record rolled
// back (or was judged by on-disk evidence once its predecessor had been
// compacted away); the test and row names are kept from there so each
// case keeps its history. What is left of those distinctions is the
// column they vary: the stored page never decides anything.
type tailRow struct {
	test, name string
	base       string   // D as created before the tail ("" = not created)
	compacted  bool     // Compact after the base: empty journal, the page is the authority
	tail       []Record // forged behind the base
	page       string   // D's stored page at the crash ("" = absent)
	want       string   // D after recovery of the whole tail ("" = absent)
	wantTorn   string   // D after recovery with the tail's last record torn; unreachable = no such crash
}

const unreachable = "\x00unreachable"

func tailRows(t *testing.T) []tailRow {
	v1, v2, v3 := content(t, "D(one)"), content(t, "D(two)"), content(t, "D(three)")
	update := func(c string) Record { return Record{Op: OpUpdate, Doc: "D", Tx: "<forged/>", Content: c} }
	create := Record{Op: OpCreate, Doc: "D", Content: v1}
	drop := Record{Op: OpDrop, Doc: "D"}
	return []tailRow{
		// An update behind a journaled create: the page is as the create
		// wrote it, or already at the update (an earlier recovery).
		{test: "TestRecoveryRollsBackUnmarkedUpdate", name: "stale-page", base: v1, tail: []Record{update(v2)}, page: v1, want: v2, wantTorn: v1},
		{test: "TestRecoveryRollsBackUnmarkedUpdate", name: "advanced-page", base: v1, tail: []Record{update(v2)}, page: v2, want: v2, wantTorn: v1},
		// A drop behind a journaled create, the page removed or not.
		{test: "TestRecoveryDropRollsBack", name: "page-removed", base: v1, tail: []Record{drop}, page: "", want: "", wantTorn: v1},
		{test: "TestRecoveryDropRollsBack", name: "page-present", base: v1, tail: []Record{drop}, page: v1, want: "", wantTorn: v1},
		// The same behind a compaction: the journal holds nothing but the
		// tail, and the page is all there is of the pre-state — so a torn
		// tail can only be met with the page untouched.
		{test: "TestRecoveryOrphanEvidence", name: "update-swapped", base: v1, compacted: true, tail: []Record{update(v2)}, page: v2, want: v2, wantTorn: unreachable},
		{test: "TestRecoveryOrphanEvidence", name: "update-untouched", base: v1, compacted: true, tail: []Record{update(v2)}, page: v1, want: v2, wantTorn: v1},
		{test: "TestRecoveryOrphanEvidence", name: "drop-removed", base: v1, compacted: true, tail: []Record{drop}, page: "", want: "", wantTorn: unreachable},
		{test: "TestRecoveryOrphanEvidence", name: "drop-untouched", base: v1, compacted: true, tail: []Record{drop}, page: v1, want: "", wantTorn: v1},
		// A create on an empty journal, and one followed by a marker that
		// names nothing (which resolves nothing, torn or whole).
		{test: "TestRecoveryOrphanCreateRollsBack", name: "unmarked", tail: []Record{create}, page: "", want: v1, wantTorn: ""},
		{test: "TestRecoveryOrphanCreateRollsBack", name: "marker-without-ref", tail: []Record{create, {Op: OpCommit}}, page: v1, want: v1, wantTorn: v1},
		// A journal written by an earlier version: commit markers change
		// nothing, and its unmarked tail rolls forward too.
		{test: "TestRecoveryMarkers", name: "legacy-commits", tail: []Record{create, {Op: OpCommit, RefSeq: -1},
			update(v2), {Op: OpCommit, RefSeq: -1}, update(v3)}, page: v2, want: v3, wantTorn: v2},
		{test: "TestRecoveryMarkers", name: "legacy-aborted-update", base: v1, tail: []Record{update(v2), {Op: OpAbort, RefSeq: -1}}, page: v1, want: v1, wantTorn: v2},
		// The abort marker is honoured; torn, it withdraws nothing — its
		// mutation is the one whose outcome the failed call left open.
		{test: "TestRecoveryMarkers", name: "aborted-create", tail: []Record{create, {Op: OpAbort, RefSeq: -1}}, page: "", want: "", wantTorn: v1},
		{test: "TestRecoveryMarkers", name: "aborted-drop", base: v1, tail: []Record{drop, {Op: OpAbort, RefSeq: -1}}, page: v1, want: v1, wantTorn: ""},
	}
}

// runTailRows runs, on both backends, the rows filed under the calling
// test.
func runTailRows(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			for _, row := range tailRows(t) {
				if row.test != strings.SplitN(t.Name(), "/", 2)[0] {
					continue
				}
				t.Run(row.name, func(t *testing.T) {
					for _, torn := range []bool{false, true} {
						want := row.want
						if torn {
							want = row.wantTorn
						}
						if want == unreachable {
							continue
						}
						dir := t.TempDir()
						if row.base != "" {
							w := openB(t, dir, backend)
							doc, err := xmlio.ParseDoc([]byte(row.base))
							if err != nil {
								t.Fatal(err)
							}
							if err := w.Create("D", doc); err != nil {
								t.Fatal(err)
							}
							if row.compacted {
								if err := w.Compact(); err != nil {
									t.Fatal(err)
								}
							}
							w.Close()
						}
						// Pages first, so that the tail's last record ends the
						// kv page file and can be torn there.
						pages := map[string]string{}
						if row.page != "" {
							pages["D"] = row.page
						}
						seedDocs(t, dir, backend, pages)
						forgeJournal(t, dir, backend, row.tail)
						path := journalFilePath(dir, backend)
						if torn {
							info, err := os.Stat(path)
							if err != nil {
								t.Fatal(err)
							}
							if err := os.Truncate(path, info.Size()-3); err != nil {
								t.Fatal(err)
							}
						}
						st, err := newBackendStore(dir, backend, vfs.OS)
						if err != nil {
							t.Fatal(err)
						}
						payloads, tornTail, err := st.ScanJournal(validRecord)
						if err != nil || tornTail != torn {
							t.Fatalf("forged journal: torn tail = %v, want %v (err %v)", tornTail, torn, err)
						}
						records, err := parseRecords(payloads)
						if err != nil {
							t.Fatal(err)
						}
						t.Logf("torn=%v", torn)
						docs := map[string]string{}
						if want != "" {
							docs["D"] = want
						}
						checkRecovered(t, dir, backend, records, docs, nil, "D")
					}
				})
			}
		})
	}
}

// The first four names date from the two-record protocol (see tailRow).
func TestRecoveryRollsBackUnmarkedUpdate(t *testing.T) { runTailRows(t) }
func TestRecoveryDropRollsBack(t *testing.T)           { runTailRows(t) }
func TestRecoveryOrphanEvidence(t *testing.T)          { runTailRows(t) }
func TestRecoveryOrphanCreateRollsBack(t *testing.T)   { runTailRows(t) }
func TestRecoveryMarkers(t *testing.T)                 { runTailRows(t) }

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
	if r := counter(w2, "px_recovery_replays_total"); r != 1 {
		t.Errorf("recovery replays = %d, want 1", r)
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

			// Reopen and mutate: the new record must land on a clean boundary.
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
			// One create per document; the torn fragment is gone.
			if len(recs) != 2 || recs[0].Op != OpCreate || recs[1].Op != OpCreate {
				t.Fatalf("journal = %+v, want the two creates", recs)
			}
		})
	}
}

// TestOpenDecodesWhatJournalScans: Open decodes each payload once,
// while its backend is deciding whether to keep it, instead of parsing
// the kept payloads afterwards; the records it ends up with are exactly
// those a separate scan-then-parse pass reads, torn tail excluded.
func TestOpenDecodesWhatJournalScans(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			forgeJournal(t, dir, backend, interleavedJournal(t))
			tearJournalTail(t, dir, backend)

			st, err := newBackendStore(dir, backend, vfs.OS)
			if err != nil {
				t.Fatal(err)
			}
			payloads, torn, err := st.ScanJournal(validRecord)
			if err != nil || !torn {
				t.Fatalf("ScanJournal: torn = %v, err %v; want a torn tail", torn, err)
			}
			scanned, err := parseRecords(payloads)
			if err != nil {
				t.Fatal(err)
			}
			opened, log, err := openRecords(st)
			if err != nil {
				t.Fatal(err)
			}
			log.Close()
			st.Close()
			if len(opened) != len(interleavedJournal(t)) || len(opened) != len(scanned) {
				t.Fatalf("Open decoded %d records, the scan %d, the journal holds %d", len(opened), len(scanned), len(interleavedJournal(t)))
			}
			for i := range opened {
				if opened[i] != scanned[i] {
					t.Errorf("record %d: Open decoded %+v, the scan %+v", i, opened[i], scanned[i])
				}
			}

			// And through the warehouse: what Open recovered is what Journal
			// reads back.
			w := openB(t, dir, backend)
			defer w.Close()
			recs, err := w.Journal()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(opened) {
				t.Errorf("Journal() = %d records, Open recovered %d", len(recs), len(opened))
			}
		})
	}
}

// TestInspectJournal checks the read-only summary behind the
// pxwarehouse verify-journal subcommand: counts, aborts, legacy commit
// markers, torn tails, and structural problems.
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
			// A to D: 13 records, 9 mutations, 7 with a full state. E: a
			// create and 34 updates, the 32nd a full state (tailJournal).
			want := JournalSummary{Records: 48, Mutations: 44, FullState: 9, TxOnly: 33, ViewOps: 1, Aborted: 2, LegacyCommits: 1, LastSeq: 48}
			if sum.Records != want.Records || sum.Mutations != want.Mutations || sum.FullState != want.FullState || sum.TxOnly != want.TxOnly ||
				sum.ViewOps != want.ViewOps || sum.Aborted != want.Aborted || sum.LegacyCommits != want.LegacyCommits || sum.LastSeq != want.LastSeq {
				t.Errorf("summary = %+v, want %+v", sum, want)
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
			if !sum.TornTail || sum.Records != 48 {
				t.Errorf("torn tail not detected: %+v", sum)
			}
		})
	}

	// Structural problems (filestore raw file).
	bad := t.TempDir()
	lines := []string{
		`{"seq":1,"op":"create","doc":"X","content":"<pxml><A/></pxml>"}`,
		`{"seq":1,"op":"abort","ref":1}`,                          // problem: seq not increasing (the abort itself counts)
		`{"seq":3,"op":"abort","ref":99}`,                         // problem: names no mutation
		`{"seq":4,"op":"abort","ref":1}`,                          // problem: second abort for 1
		`{"seq":5,"op":"frobnicate"}`,                             // problem: unknown op
		`{"seq":6,"op":"commit","ref":77}`,                        // legacy marker: counted, whatever it names
		`{"seq":7,"op":"abort"}`,                                  // problem: no ref names no mutation
		`{"seq":8,"op":"update","doc":"X","tx":"<t/>","nodes":1}`, // problem: X's only full state was aborted
		`{"seq":9,"op":"create","doc":"Y","content":"<pxml><A/></pxml>"}`,
		`{"seq":10,"op":"drop","doc":"Y"}`,
		`{"seq":11,"op":"update","doc":"Y","tx":"<t/>","nodes":1}`, // problem: no full state of Y since its drop
		`{"seq":12,"op":"create","doc":"Z","content":"<pxml><A/></pxml>"}`,
		`{"seq":13,"op":"update","doc":"Z","tx":"<t/>","nodes":1}`, // replays onto Z's create
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
	if len(sum.Problems) != 7 {
		t.Errorf("problems = %v, want 7", sum.Problems)
	}
	if sum.Aborted != 1 || sum.LegacyCommits != 1 || sum.FullState != 3 || sum.TxOnly != 3 {
		t.Errorf("aborted = %d, legacy commits = %d, full state %d, Tx only %d; want 1, 1, 3 and 3",
			sum.Aborted, sum.LegacyCommits, sum.FullState, sum.TxOnly)
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

	appends, batches := counter(w, "px_journal_appends_total"), counter(w, "px_journal_sync_batches_total")
	want := int64(docs + docs*rounds) // one record per create and update
	if appends != want {
		t.Errorf("appends = %d, want %d", appends, want)
	}
	if batches <= 0 || batches > appends {
		t.Errorf("sync batches = %d, want in (0, %d]", batches, appends)
	}
}
