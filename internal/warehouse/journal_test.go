package warehouse

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/xmlio"
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
			if a, r := counter(w, "px_journal_appends_total"), counter(w, "px_recovery_replays_total"); a != 0 || r != 1 {
				t.Errorf("%d appends, %d replays; want nothing appended and alpha's page replayed", a, r)
			}
		})
	}
}

// checkDecodeRecord decodes payload with decodeRecord and with
// json.Unmarshal, both into a record with every field set, and fails
// unless both accept it and leave the same record or both refuse it.
func checkDecodeRecord(t *testing.T, payload []byte) {
	t.Helper()
	prior := Record{Seq: 7, Op: "prior", RefSeq: 3, Doc: "d", Tx: "t", Event: "e", Nodes: 5, Content: "c", View: "v", Query: "q", Syntax: "s"}
	got, want := prior, prior
	ok := decodeRecord(payload, &got)
	err := json.Unmarshal(payload, &want)
	if wantOK := err == nil && len(payload) < maxRecordBytes; ok != wantOK {
		t.Fatalf("decodeRecord(%q) = %v, json.Unmarshal: %v", payload, ok, err)
	}
	if ok && got != want {
		t.Fatalf("decodeRecord(%q) = %+v, json.Unmarshal %+v", payload, got, want)
	}
}

// recordSeeds returns journal payloads to start from: encodeRecord of
// records of every kind, the fixture journal's lines (written by
// json.Marshal), and JSON at the edges of what Unmarshal accepts.
func recordSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, r := range []Record{
		{Seq: 1, Op: OpCreate, Doc: "D", Content: "<pxml>\n  <a b=\"c\">x &amp; y</a>\n</pxml>"},
		{Seq: 2, Op: OpUpdate, Doc: "D", Tx: "<transaction confidence=\"0.5\">'&'</transaction>", Content: "line sep   para\r\n\ttab\x00\x1f\x7f"},
		{Seq: 3, Op: OpUpdate, Doc: "D", Content: "replacement �, astral \U0001F600, é, \\ and \\u003c spelled out, bad \xff\xfe"},
		{Seq: 4, Op: OpUpdate, Doc: "D", Tx: simplifyTx, Event: "u<3>", Nodes: 12},
		{Seq: 5, Op: OpViewRegister, Doc: "D", View: "v", Query: "A(B $b) & <x>", Syntax: "tpwj"},
		{Seq: 1<<63 - 1, Op: OpAbort, RefSeq: -1 << 63, Nodes: -1},
	} {
		p, err := encodeRecord(r)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "journal-pr18", "filestore", "journal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, bytes.Split(bytes.TrimSpace(data), []byte("\n"))...)
	for _, s := range []string{
		`null`, ` null `, `{}`, ` { } `, `[]`, `"x"`, `1`, `true`, ``, ` `, `{`, `{}x`, `{} {}`, `nul`, `nullx`,
		`{"seq":1,"seq":2}`, `{"SEQ":3}`, `{"Seq":3,"seq":4}`, `{"ſeq":5}`, `{"ſyntax":"k"}`, `{"seq":6}`,
		`{"seq":null}`, `{"op":null}`, `{"seq":"1"}`, `{"op":1}`, `{"seq":1.0}`, `{"seq":1e2}`, `{"seq":-0}`,
		`{"seq":01}`, `{"seq":-}`, `{"seq":9223372036854775807}`, `{"seq":9223372036854775808}`,
		`{"ref":-9223372036854775808}`, `{"ref":-9223372036854775809}`, `{"nodes":99999999999999999999}`,
		`{"x":{"y":[1,2.5e-3,true,false,null,"s",{}]}}`, `{"x":[}`, `{"x":tru}`, `{"x":1.}`, `{"x":.5}`, `{"x":+1}`,
		`{"doc":"\"\\\/\b\f\n\r\té😀"}`, `{"doc":"\uD83D"}`, `{"doc":"\uD83Dx"}`, `{"doc":"\uDE00\uD83D"}`,
		`{"doc":"\uD83DA"}`, `{"doc":"\uD83D😀"}`, `{"doc":"\u12"}`, `{"doc":"\x"}`, `{"doc":"\uZZZZ"}`,
		"{\"doc\":\"\xff\xc3\"}", "{\"doc\":\"\xed\xa0\x80\"}", "{\"doc\":\"a\tb\"}", "{\"doc\":\"a\x7fb\"}",
		`{"seq":1,}`, `{,"seq":1}`, `{"seq" 1}`, `{"seq":1 "op":"x"}`, `{seq:1}`, `{'seq':1}`, "\ufeff{}",
		`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestDecodeRecordMatchesJSON(t *testing.T) {
	for _, p := range recordSeeds(t) {
		checkDecodeRecord(t, p)
	}
}

// FuzzDecodeRecordMatchesJSON: on every payload, decodeRecord accepts
// what json.Unmarshal accepts for a Record, and leaves the same record.
func FuzzDecodeRecordMatchesJSON(f *testing.F) {
	for _, p := range recordSeeds(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeRecord(t, payload)
	})
}

// BenchmarkDecodeRecord decodes the create record of a 256-section
// document with decodeRecord and with json.Unmarshal.
func BenchmarkDecodeRecord(b *testing.B) {
	content, err := xmlio.DocXML(shapeDoc(rand.New(rand.NewSource(1)), 256, 16))
	if err != nil {
		b.Fatal(err)
	}
	payload, err := encodeRecord(Record{Seq: 1, Op: OpCreate, Doc: "doc", Content: string(content)})
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		fn   func(*Record) bool
	}{
		{"direct", func(r *Record) bool { return decodeRecord(payload, r) }},
		{"json", func(r *Record) bool { return json.Unmarshal(payload, r) == nil }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				var r Record
				if !impl.fn(&r) {
					b.Fatal("payload refused")
				}
			}
		})
	}
}
