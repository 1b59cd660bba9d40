package warehouse

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestRecordEncodingRoundTrip: journal payloads carry markup as itself
// — no six-byte \u003c for every '<' of the XML — and still frame and
// decode on both backends: no raw newline inside a payload (the
// filestore frames by line), U+2028/U+2029 escaped, and every record
// read back equal to what was appended, Tx-only update records (event
// and node count, no content) included. A payload in the form
// json.Marshal used to write decodes to the same record.
func TestRecordEncodingRoundTrip(t *testing.T) {
	records := []Record{
		{Op: OpCreate, Doc: "D", Content: "<pxml>\n  <a b=\"c\">x &amp; y</a>\n</pxml>"},
		{Op: OpUpdate, Doc: "D", Tx: "<transaction confidence=\"0.5\">'&'</transaction>", Content: "line\u2028sep \u2029 para\r\n\ttab"},
		{Op: OpUpdate, Doc: "D", Content: "replacement \uFFFD, astral \U0001F600, é, \\ and \\u003c spelled out"},
		{Op: OpUpdate, Doc: "D", Tx: "<transaction confidence=\"0.9\">\n  <where>A $a</where>\n</transaction>\n", Event: "u<3>", Nodes: 12},
		{Op: OpUpdate, Doc: "D", Tx: simplifyTx, Nodes: 7},
		{Op: OpViewRegister, Doc: "D", View: "v", Query: "A(B $b) & <x>", Syntax: "tpwj"},
		{Op: OpDrop, Doc: "D"},
		{Op: OpAbort, RefSeq: -1},
	}
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			forgeJournal(t, dir, backend, records)
			st, err := newBackendStore(dir, backend, vfs.OS)
			if err != nil {
				t.Fatal(err)
			}
			payloads, torn, err := st.ScanJournal(validRecord)
			if err != nil || torn {
				t.Fatalf("ScanJournal: torn=%v err=%v", torn, err)
			}
			got, err := parseRecords(payloads)
			if err != nil {
				t.Fatal(err)
			}
			want := numbered(records)
			if len(got) != len(want) {
				t.Fatalf("read back %d records, appended %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("record %d read back as %+v, appended %+v", i, got[i], want[i])
				}
				p := payloads[i]
				if bytes.ContainsAny(p, "\n\r") || bytes.Contains(p, []byte("\u2028")) || bytes.Contains(p, []byte("\u2029")) {
					t.Errorf("payload %d holds a raw line break: %q", i, p)
				}
				fields := want[i].Doc + want[i].Tx + want[i].Event + want[i].Content + want[i].View + want[i].Query + want[i].Syntax
				for _, c := range []string{"<", ">", "&"} {
					if bytes.Count(p, []byte(c)) != strings.Count(fields, c) {
						t.Errorf("payload %d does not carry every %q as itself: %q", i, c, p)
					}
				}
				// The form written before: HTML-escaped, same record.
				old, err := json.Marshal(want[i])
				if err != nil {
					t.Fatal(err)
				}
				var r Record
				if !validRecord(old) || !decodeRecord(old, &r) || r != want[i] {
					t.Errorf("record %d in json.Marshal's form decodes to %+v", i, r)
				}
				if len(old) < len(p) {
					t.Errorf("payload %d grew: %d bytes, json.Marshal's %d", i, len(p), len(old))
				}
			}
		})
	}
}

// TestLegacyJournalOpens: directories written by the last commit of the
// two-record protocol (testdata/journal-pr18, see its README) open to
// their acknowledged documents and views, with the unmarked tail
// update — in flight when that version stopped — rolled forward, the
// aborted update without effect, and nothing appended.
func TestLegacyJournalOpens(t *testing.T) {
	fixture := filepath.Join("testdata", "journal-pr18")
	want := func(name string) string {
		data, err := os.ReadFile(filepath.Join(fixture, "want", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			dir := copyWarehouseDir(t, filepath.Join(fixture, backend))
			sum, err := InspectJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Records != 15 || sum.LegacyCommits != 6 || sum.Aborted != 1 || sum.TornTail || len(sum.Problems) != 0 {
				t.Fatalf("fixture journal: %+v, want 15 records, 6 commit markers, 1 abort, no problems", sum)
			}

			w := openB(t, dir, backend)
			defer w.Close()
			got, err := w.GetXML("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) == want("alpha.acknowledged.pxml") {
				t.Error("alpha is at its last marked update: the unmarked tail was not rolled forward")
			} else if string(got) != want("alpha.pxml") {
				t.Errorf("alpha = %s, want the tail's post-state %s", got, want("alpha.pxml"))
			}
			wantDoc(t, w, "beta", "")
			if got, err := w.GetXML("gamma"); err != nil || string(got) != want("gamma.pxml") {
				t.Errorf("gamma = %s (err %v), want its create state %s", got, err, want("gamma.pxml"))
			}
			defs, err := w.ListViews("alpha")
			if err != nil || len(defs) != 1 || defs[0].Name != "v" || defs[0].Query != "A(B $b)" {
				t.Errorf("views of alpha = %+v (err %v), want v", defs, err)
			}
			if s := w.JournalStats(); s.Appends != 0 || s.RecoveryReplays != 1 {
				t.Errorf("journal stats = %+v, want nothing appended and alpha's page replayed", s)
			}
		})
	}
}
