package warehouse

// Replay oracles for journals of a base plus a tail of transactions:
// whatever the depth of a document's tail when the process dies, the
// next Open reproduces the live snapshot byte for byte
// (TestReplayMatchesLive), down to the ids of minted confidence events
// (TestReplayPinsMintedEvent).

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/xmlio"
)

// shapeDoc builds a document shaped like the benchmark's: a root A of
// keyed sections S(K:s<i>, T:<two words>, C:c<k>), half of the sections
// and a third of the titles conditioned on one of the events e1..eN,
// a third of the title literals negated.
func shapeDoc(r *rand.Rand, sections, events int) *fuzzy.Tree {
	tab := event.NewTable()
	ids := make([]event.ID, events)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("e%d", i+1))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	root := fuzzy.NewNode("A")
	for i := 0; i < sections; i++ {
		s := fuzzy.NewNode("S")
		if r.Intn(2) == 0 {
			s.WithCond(event.Cond(event.Pos(ids[r.Intn(events)])))
		}
		t := fuzzy.NewLeaf("T", fmt.Sprintf("kw%02d kw%02d", r.Intn(64), r.Intn(64)))
		if r.Intn(3) == 0 {
			l := event.Pos(ids[r.Intn(events)])
			if r.Intn(3) == 0 {
				l = l.Negate()
			}
			t.WithCond(event.Cond(l))
		}
		s.Add(fuzzy.NewLeaf("K", fmt.Sprintf("s%d", i)), t, fuzzy.NewLeaf("C", fmt.Sprintf("c%d", i%max(1, sections/8))))
		root.Add(s)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// mutationStream deals the seeded mutation mix replay must reproduce:
// every simplifyEvery-th mutation a Simplify, the others an insert of
// G(L:w<k>) under a random section or a delete of a live group, each
// at confidence 1, 0.9 or 0.8 — the two below 1 mint an event, and a
// delete matching a group inserted at another confidence leaves
// conditioned copies.
type mutationStream struct {
	r                       *rand.Rand
	sections, simplifyEvery int
	n, seq                  int
	live                    []int
}

func (s *mutationStream) next(t testing.TB, w *Warehouse, name string) {
	t.Helper()
	s.n++
	if s.n%s.simplifyEvery == 0 {
		if _, err := w.Simplify(name); err != nil {
			t.Fatal(err)
		}
		return
	}
	conf := []float64{1, 0.9, 0.8}[s.r.Intn(3)]
	var tx *update.Transaction
	if len(s.live) > 0 && s.r.Intn(3) == 0 {
		k := s.r.Intn(len(s.live))
		q := fmt.Sprintf("A(S(G $g(L=w%d)))", s.live[k])
		s.live = append(s.live[:k], s.live[k+1:]...)
		tx = update.New(tpwj.MustParseQuery(q), conf, update.Delete("g"))
	} else {
		s.seq++
		s.live = append(s.live, s.seq)
		q := fmt.Sprintf("A(S $s(K=s%d))", s.r.Intn(s.sections))
		tx = update.New(tpwj.MustParseQuery(q), conf, update.Insert("s", tree.MustParse(fmt.Sprintf("G(L:w%d)", s.seq))))
	}
	if _, err := w.Update(name, tx); err != nil {
		t.Fatal(err)
	}
}

// tailLen returns the number of Tx-only records the document has since
// its last full-state record, and whether it has one at all.
func tailLen(w *Warehouse, name string) (int, bool) {
	w.dirtyMu.Lock()
	defer w.dirtyMu.Unlock()
	n, ok := w.tail[name]
	return n, ok
}

// requireRecoversLive copies the directory of the open warehouse — a
// kill, nothing flushed — opens the copy, and requires every named
// document to read back byte-identical to the live snapshot, with
// exactly txReplayed Tx-only records re-applied on the way.
func requireRecoversLive(t *testing.T, w *Warehouse, backend string, txReplayed int, names ...string) {
	t.Helper()
	image := copyWarehouseDir(t, w.Dir())
	r := openB(t, image, backend)
	defer r.Close()
	for _, name := range names {
		live, err := w.GetXML(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.GetXML(name)
		if err != nil {
			t.Fatalf("recovered %q: %v", name, err)
		}
		if string(got) != string(live) {
			t.Fatalf("recovered %q differs from the live snapshot:\n%s\nwant:\n%s", name, got, live)
		}
	}
	if s := r.JournalStats(); s.RecoveryTxReplayed != int64(txReplayed) {
		t.Errorf("recovery re-applied %d Tx-only records, want %d", s.RecoveryTxReplayed, txReplayed)
	}
}

// TestReplayMatchesLive drives a seeded stream of inserts, conditioned
// deletes and simplifies into documents of two benchmark shapes and
// recovers a kill image at the tail depths that matter — a bare create,
// one transaction, the deepest tail (fullStateEvery-1), the full-state
// record that ends it, one past it, the end of a stream three bases
// long — and after a drop and re-create of the document, whose new
// create must be the only base replay uses.
func TestReplayMatchesLive(t *testing.T) {
	shapes := []struct {
		name             string
		sections, events int
	}{
		{"query_cold", 512, 16},
		{"mixed_serving", 16, 8},
	}
	checked := map[int]bool{0: true, 1: true, fullStateEvery - 1: true, fullStateEvery: true, fullStateEvery + 1: true, 3 * fullStateEvery: true}
	for _, backend := range storeBackends {
		for _, sh := range shapes {
			t.Run(backend+"/"+sh.name, func(t *testing.T) {
				w := openB(t, t.TempDir(), backend)
				defer w.Close()
				r := rand.New(rand.NewSource(1))
				if err := w.Create("doc", shapeDoc(r, sh.sections, sh.events)); err != nil {
					t.Fatal(err)
				}
				s := &mutationStream{r: r, sections: sh.sections, simplifyEvery: 8}
				for depth := 0; depth <= 3*fullStateEvery; depth++ {
					if depth > 0 {
						s.next(t, w, "doc")
					}
					tail, ok := tailLen(w, "doc")
					if !ok || tail != depth%fullStateEvery {
						t.Fatalf("after %d mutations the tail is %d (journaled %v), want %d", depth, tail, ok, depth%fullStateEvery)
					}
					if checked[depth] {
						requireRecoversLive(t, w, backend, tail, "doc")
					}
				}

				live, err := w.GetXML("doc")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Drop("doc"); err != nil {
					t.Fatal(err)
				}
				if _, ok := tailLen(w, "doc"); ok {
					t.Error("a dropped document keeps its tail")
				}
				doc, err := xmlio.ParseDoc(live)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Create("doc", doc); err != nil {
					t.Fatal(err)
				}
				requireRecoversLive(t, w, backend, 0, "doc")
				s.next(t, w, "doc")
				requireRecoversLive(t, w, backend, 1, "doc")
			})
		}
	}
}

// TestReplayPinsMintedEvent: Simplify drops a minted event u1 from the
// table while the live table's counter stays past it, and that
// Simplify's record is the one carrying the full state; the next
// update mints u2. A table parsed from the full state would mint u1
// again, so only the record's pinned event lets recovery reproduce the
// acknowledged document.
func TestReplayPinsMintedEvent(t *testing.T) {
	for _, backend := range storeBackends {
		t.Run(backend, func(t *testing.T) {
			w := openB(t, t.TempDir(), backend)
			defer w.Close()
			if err := w.Create("doc", slide12()); err != nil {
				t.Fatal(err)
			}
			mustUpdate := func(tx *update.Transaction) *update.FuzzyStats {
				t.Helper()
				stats, err := w.Update("doc", tx)
				if err != nil {
					t.Fatal(err)
				}
				return stats
			}
			if st := mustUpdate(update.New(tpwj.MustParseQuery("A $a"), 0.5, update.Insert("a", tree.MustParse("N")))); st.Event != "u1" {
				t.Fatalf("first update minted %q, want u1", st.Event)
			}
			// Certain, and conditioned on u1 alone: N goes outright and
			// nothing mentions u1 any more.
			mustUpdate(update.New(tpwj.MustParseQuery("A(N $n)"), 1, update.Delete("n")))
			for tail, _ := tailLen(w, "doc"); tail < fullStateEvery-1; tail, _ = tailLen(w, "doc") {
				mustUpdate(update.New(tpwj.MustParseQuery("A $a"), 1, update.Insert("a", tree.MustParse("F"))))
			}
			if _, err := w.Simplify("doc"); err != nil {
				t.Fatal(err)
			}
			if st := mustUpdate(update.New(tpwj.MustParseQuery("A(C $c)"), 0.7, update.Insert("c", tree.MustParse("M")))); st.Event != "u2" {
				t.Fatalf("update after the simplify minted %q, want the live counter's u2", st.Event)
			}

			recs, err := w.Journal()
			if err != nil {
				t.Fatal(err)
			}
			simplified, last := recs[len(recs)-2], recs[len(recs)-1]
			if simplified.Tx != simplifyTx || simplified.Content == "" || strings.Contains(simplified.Content, `"u1"`) {
				t.Fatalf("the simplify's record is not the full state without u1: %+v", simplified)
			}
			if !last.txOnly() || last.Event != "u2" {
				t.Fatalf("the last record is not Tx-only with event u2: %+v", last)
			}
			requireRecoversLive(t, w, backend, 1, "doc")
		})
	}
}

// TestReplayIntegrityCheck: a Tx-only record whose replay lands on a
// different node count, or mints a different event, fails Open with the
// document and the seq, and so does a Tx-only record with no full state
// before it.
func TestReplayIntegrityCheck(t *testing.T) {
	tx := "<transaction confidence=\"1\"><where>A $a</where><insert into=\"$a\"><N/></insert></transaction>"
	cases := []struct {
		name    string
		records []Record
		want    string
	}{
		{"node-count", []Record{
			{Op: OpCreate, Doc: "D", Content: content(t, "A(B)")},
			{Op: OpUpdate, Doc: "D", Tx: tx, Nodes: 4},
		}, `"D": replay of seq 2: post-state has 3 nodes, the record says 4`},
		{"minted-event", []Record{
			{Op: OpCreate, Doc: "D", Content: content(t, "A(B)")},
			{Op: OpUpdate, Doc: "D", Tx: tx, Event: "u7", Nodes: 3},
		}, `"D": replay of seq 2: minted event "", the record says "u7"`},
		{"no-base", []Record{
			{Op: OpCreate, Doc: "D", Content: content(t, "A(B)")},
			{Op: OpDrop, Doc: "D"},
			{Op: OpUpdate, Doc: "D", Tx: tx, Nodes: 3},
		}, `seq 3 updates "D" without a full state`},
	}
	for _, backend := range storeBackends {
		for _, c := range cases {
			t.Run(backend+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				forgeJournal(t, dir, backend, c.records)
				w, err := OpenBackend(dir, backend, vfs.OS)
				if err == nil {
					w.Close()
					t.Fatal("Open served a journal whose replay diverges")
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Errorf("Open: %v, want it to name %s", err, c.want)
				}
			})
		}
	}
}

// A small document whose journal crosses fullStateEvery, recorded once
// through a live warehouse (see tailJournal).
var tailJournalOnce struct {
	sync.Once
	records []Record
	err     error
}

// tailJournal returns the records a live warehouse journals for
// document E: its create, then fullStateEvery+2 mutations of the
// seeded stream — fullStateEvery-1 Tx-only records, the full-state
// record that ends that tail, and two Tx-only records after it. Seqs
// are cleared so the records can be forged into any journal.
func tailJournal(t *testing.T) []Record {
	t.Helper()
	o := &tailJournalOnce
	o.Do(func() {
		dir, err := os.MkdirTemp("", "tail-journal")
		if err != nil {
			o.err = err
			return
		}
		defer os.RemoveAll(dir)
		w, err := Open(dir)
		if err != nil {
			o.err = err
			return
		}
		defer w.Close()
		r := rand.New(rand.NewSource(3))
		if o.err = w.Create("E", shapeDoc(r, 4, 3)); o.err != nil {
			return
		}
		s := &mutationStream{r: r, sections: 4, simplifyEvery: 8}
		for i := 0; i < fullStateEvery+2; i++ {
			s.next(t, w, "E")
		}
		o.records, o.err = w.Journal()
		for i := range o.records {
			o.records[i].Seq = 0
		}
	})
	if o.err != nil || len(o.records) == 0 {
		t.Fatalf("recording the tail journal: %v", o.err)
	}
	return append([]Record(nil), o.records...)
}
