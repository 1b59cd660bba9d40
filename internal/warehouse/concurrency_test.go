package warehouse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

// stressDoc builds a small fuzzy document with a couple of events.
func stressDoc() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1]:x, C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
}

// TestStressParallelMixed hammers a warehouse with parallel Query,
// QueryMC, Update, Get, Stat, Create and Drop calls across overlapping
// documents. It asserts no data races (run under -race), no unexpected
// errors, and that every document left standing is readable.
func TestStressParallelMixed(t *testing.T) {
	w := openTemp(t)

	const (
		docs    = 6
		workers = 8
		rounds  = 20
	)
	names := make([]string, docs)
	for i := range names {
		names[i] = fmt.Sprintf("doc%d", i)
		if err := w.Create(names[i], stressDoc()); err != nil {
			t.Fatal(err)
		}
	}

	q := tpwj.MustParseQuery("A(//D)")
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	// benign reports errors that are expected under churn: readers and
	// writers racing Drop/Create legitimately see "no such document" or
	// "already exists".
	benign := func(err error) bool {
		return errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists)
	}

	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				name := names[r.Intn(docs)]
				switch r.Intn(7) {
				case 0:
					if _, err := w.Query(name, q); err != nil && !benign(err) {
						errs <- err
					}
				case 1:
					if _, err := w.QueryMC(name, q, 50, r); err != nil && !benign(err) {
						errs <- err
					}
				case 2:
					tx := update.New(tpwj.MustParseQuery("A $a"), 0.5,
						update.Insert("a", tree.MustParse("N")))
					if _, err := w.Update(name, tx); err != nil && !benign(err) {
						errs <- err
					}
				case 3:
					if _, err := w.Get(name); err != nil && !benign(err) {
						errs <- err
					}
				case 4:
					if _, err := w.Stat(name); err != nil && !benign(err) {
						errs <- err
					}
				case 5:
					// Churn: drop and immediately recreate.
					if err := w.Drop(name); err != nil {
						if !benign(err) {
							errs <- err
						}
						continue
					}
					if err := w.Create(name, stressDoc()); err != nil && !benign(err) {
						errs <- err
					}
				case 6:
					if _, err := w.List(); err != nil {
						errs <- err
					}
				}
			}
		}(int64(wkr))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Concurrent installs interleave their records freely, but every
	// record is a mutation of its own with its own increasing Seq: no
	// error-free mutation writes a marker, and none names another
	// record — the invariant replay-only recovery relies on. (The
	// warehouse is quiescent here, so the journal read is exact.)
	recs, err := w.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if appends := counter(w, "px_journal_appends_total"); int64(len(recs)) != appends {
		t.Errorf("journal holds %d records for %d acknowledged appends", len(recs), appends)
	}
	for i, rec := range recs {
		if !rec.Op.Mutation() || rec.RefSeq != 0 {
			t.Fatalf("journal record %d is %s ref %d, want a mutation naming nothing", i, rec.Op, rec.RefSeq)
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("journal record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}

	// Whatever survives the churn must be consistently readable.
	left, err := w.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range left {
		if _, err := w.Get(name); err != nil {
			t.Errorf("Get(%q) after stress: %v", name, err)
		}
		if _, err := w.Query(name, q); err != nil {
			t.Errorf("Query(%q) after stress: %v", name, err)
		}
	}
}

// TestParallelQueriesSameDoc checks that many concurrent queries on one
// document all see the same snapshot while an update runs, and that the
// update's result becomes visible afterwards.
func TestParallelQueriesSameDoc(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", stressDoc()); err != nil {
		t.Fatal(err)
	}
	q := tpwj.MustParseQuery("A(B)")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				answers, err := w.Query("doc", q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(answers) != 1 {
					t.Errorf("answers = %d, want 1", len(answers))
				}
			}
		}()
	}
	tx := update.New(tpwj.MustParseQuery("A $a"), 1,
		update.Insert("a", tree.MustParse("E:new")))
	if _, err := w.Update("doc", tx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	got, err := w.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	got.Root.Walk(func(n *fuzzy.Node) bool {
		if n.Label == "E" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("updated node not visible after concurrent queries")
	}
}

// TestReadsRacingUpdatesSeePublishedVersions is the staleness contract
// under contention (run with -race): while one writer keeps updating a
// document, every query, search and view read returns exactly the
// answers of one published version — the one its Snapshot names —
// never a blend of two and never a version that was not published. A
// reader also never goes back in time.
func TestReadsRacingUpdatesSeePublishedVersions(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("doc", stressDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView("doc", "marks", "A(N(M $m))", ""); err != nil {
		t.Fatal(err)
	}
	h := viewHandleOf(t, w, "doc", "marks")
	ctx := context.Background()
	q := tpwj.MustParseQuery("A(N $n)")
	kw := keyword.Request{Keywords: []string{"mark"}}
	// read renders what one snapshot answers to the query, the search
	// and the view (read the way ReadView reads it).
	read := func(s *Snapshot) (string, error) {
		answers, err := s.Query(ctx, q)
		if err != nil {
			return "", err
		}
		res, err := s.Search(ctx, kw)
		if err != nil {
			return "", err
		}
		v, err := w.viewOn(ctx, s, h)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, a := range answers {
			fmt.Fprintf(&b, "%s=%v ", tree.Canonical(a.Tree), a.P)
		}
		b.WriteString("|")
		for _, a := range res.Answers {
			fmt.Fprintf(&b, " %s:%s=%v", a.Path, a.Value, a.P)
		}
		b.WriteString(" |")
		for _, a := range v.Answers() {
			fmt.Fprintf(&b, " %s=%v", tree.Canonical(a.Tree), a.P)
		}
		return b.String(), nil
	}

	const updates, readers = 12, 4
	// published is written by the single writer only: after each of its
	// mutations returns, the current snapshot is the version it made.
	published := make(map[uint64]string)
	publish := func() {
		s, err := w.Snapshot(ctx, "doc")
		if err != nil {
			t.Error(err)
			return
		}
		if published[s.Version()], err = read(s); err != nil {
			t.Error(err)
		}
	}
	publish()

	type seen struct {
		version uint64
		answers string
	}
	observed := make([][]seen, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := w.Snapshot(ctx, "doc")
				if err != nil {
					t.Error(err)
					return
				}
				answers, err := read(s)
				if err != nil {
					t.Error(err)
					return
				}
				observed[r] = append(observed[r], seen{s.Version(), answers})
			}
		}(r)
	}
	for i := 0; i < updates; i++ {
		tx := update.New(tpwj.MustParseQuery("A $a"), 0.5,
			update.Insert("a", tree.MustParse(fmt.Sprintf("N(M:mark, I:i%d)", i))))
		if _, err := w.Update("doc", tx); err != nil {
			t.Fatal(err)
		}
		publish()
	}
	close(stop)
	wg.Wait()

	if len(published) != updates+1 {
		t.Fatalf("writer recorded %d versions, want %d distinct ones", len(published), updates+1)
	}
	for r, obs := range observed {
		var last uint64
		for _, o := range obs {
			want, ok := published[o.version]
			if !ok {
				t.Fatalf("reader %d saw version %d, which was never published", r, o.version)
			}
			if o.answers != want {
				t.Fatalf("reader %d at version %d got\n  %s\nwant that version's answers\n  %s", r, o.version, o.answers, want)
			}
			if o.version < last {
				t.Fatalf("reader %d went back from version %d to %d", r, last, o.version)
			}
			last = o.version
		}
	}
}

// TestOldSnapshotsKeepTheirBytes is the immutability contract of a
// published version under path copying (run with -race): an update
// shares every subtree it does not edit with its predecessor, so
// readers hold on to old snapshots while inserts, deletions with
// conditioned copies and simplifications land, re-encoding them as
// they go, and every old snapshot still encodes to the bytes its
// version had when it was published.
func TestOldSnapshotsKeepTheirBytes(t *testing.T) {
	w := openTemp(t)
	r := rand.New(rand.NewSource(7))
	if err := w.Create("doc", shapeDoc(r, 32, 4)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// published is written by the writer only, after each mutation.
	published := make(map[uint64][]byte)
	publish := func() {
		s, err := w.Snapshot(ctx, "doc")
		if err != nil {
			t.Fatal(err)
		}
		if published[s.Version()], err = s.XML(ctx); err != nil {
			t.Fatal(err)
		}
	}
	publish()

	const updates, readers = 40, 4
	kept := make([][]*Snapshot, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := w.Snapshot(ctx, "doc")
				if err != nil {
					t.Error(err)
					return
				}
				if n := len(kept[g]); n == 0 || kept[g][n-1] != s {
					kept[g] = append(kept[g], s)
				}
				// Re-encode an old version while the writer builds new
				// ones on top of it.
				if _, err := kept[g][i%len(kept[g])].XML(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stream := &mutationStream{r: rand.New(rand.NewSource(8)), sections: 32, simplifyEvery: 10}
	for i := 0; i < updates; i++ {
		stream.next(t, w, "doc")
		publish()
	}
	close(stop)
	wg.Wait()

	checked := 0
	for g := range kept {
		for _, s := range kept[g] {
			data, err := s.XML(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, published[s.Version()]) {
				t.Fatalf("reader %d: version %d encodes differently than when it was published", g, s.Version())
			}
			checked++
		}
	}
	if checked < readers*2 {
		t.Errorf("readers kept only %d snapshots", checked)
	}
}

// TestConcurrentCreateOneWinner: of 16 goroutines creating one name at
// once, exactly one succeeds and every other gets ErrExists — a Create
// that finds the name entered waits for that Create's outcome — and the
// name ends with one table entry.
func TestConcurrentCreateOneWinner(t *testing.T) {
	w := openTemp(t)
	for round := 0; round < 10; round++ {
		name := fmt.Sprintf("doc%d", round)
		start := make(chan struct{})
		errs := make([]error, 16)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs[i] = w.Create(name, stressDoc())
			}(i)
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case !errors.Is(err, ErrExists):
				t.Errorf("Create(%s) = %v, want nil or ErrExists", name, err)
			}
		}
		if won != 1 {
			t.Errorf("%d of %d concurrent creates of %s succeeded, want exactly 1", won, len(errs), name)
		}
		if _, err := w.Stat(name); err != nil {
			t.Errorf("Stat(%s) after the creates: %v", name, err)
		}
		if got := tableSize(w); got != round+1 {
			t.Errorf("table of documents has %d entries after %d names, want %d", got, round+1, round+1)
		}
	}
}

// tableSize reports the number of entries in the table of documents.
func tableSize(w *Warehouse) int {
	w.docsMu.RLock()
	defer w.docsMu.RUnlock()
	return len(w.docs)
}

// TestLockTableBounded pins that operations on nonexistent documents —
// the names clients can probe freely over HTTP — never allocate table
// entries, so the table is bounded by real documents.
func TestLockTableBounded(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("real", stressDoc()); err != nil {
		t.Fatal(err)
	}
	base := tableSize(w)
	q := tpwj.MustParseQuery("A")
	tx := update.New(q, 0.5, update.Delete(""))
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("ghost%d", i)
		w.Query(name, q)                                    //nolint:errcheck
		w.Get(name)                                         //nolint:errcheck
		w.Stat(name)                                        //nolint:errcheck
		w.Drop(name)                                        //nolint:errcheck
		w.Update(name, tx)                                  //nolint:errcheck
		w.Simplify(name)                                    //nolint:errcheck
		w.QueryMC(name, q, 10, rand.New(rand.NewSource(1))) //nolint:errcheck
	}
	if got := tableSize(w); got != base {
		t.Errorf("table of documents grew from %d to %d on nonexistent names", base, got)
	}

	// Create/drop churn of unique names must not grow it either: Drop
	// unlists the entry.
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("churn%d", i)
		if err := w.Create(name, stressDoc()); err != nil {
			t.Fatal(err)
		}
		if err := w.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := tableSize(w); got != base {
		t.Errorf("table of documents grew from %d to %d under create/drop churn", base, got)
	}
}

// TestSentinelErrors pins the error categories the HTTP layer maps to
// status codes.
func TestSentinelErrors(t *testing.T) {
	w := openTemp(t)
	if _, err := w.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := w.Drop("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Drop(missing) = %v, want ErrNotFound", err)
	}
	if err := w.Create("bad name!", stressDoc()); !errors.Is(err, ErrInvalidName) {
		t.Errorf("Create(bad name) = %v, want ErrInvalidName", err)
	}
	if err := w.Create("dup", stressDoc()); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("dup", stressDoc()); !errors.Is(err, ErrExists) {
		t.Errorf("Create(dup) = %v, want ErrExists", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Get("dup"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
}
