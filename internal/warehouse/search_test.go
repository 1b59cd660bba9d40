package warehouse

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

func searchDoc() *fuzzy.Tree {
	return fuzzy.MustParseTree(
		"lib(book[w1](title:kafka, author:max), shelf(book[w2](title:kafka)))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.5})
}

func TestWarehouseSearch(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("lib", searchDoc()); err != nil {
		t.Fatal(err)
	}

	res, err := w.Search("lib", keyword.Request{Keywords: []string{"kafka"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 || math.Abs(res.Answers[0].P-0.8) > 1e-12 {
		t.Fatalf("answers = %+v", res.Answers)
	}

	if _, err := w.Search("nope", keyword.Request{Keywords: []string{"kafka"}}); err == nil {
		t.Error("no error searching a missing document")
	}
}

// TestSearchIndexLifecycle checks that the inverted index belongs to
// one document version: built by the first search of that version,
// shared by later ones, never built for a version nobody searched, and
// gone with the document.
func TestSearchIndexLifecycle(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("lib", searchDoc()); err != nil {
		t.Fatal(err)
	}
	// Index builds are counted process-wide by the keyword engine;
	// searches and index hits per warehouse.
	indexBuilds := func() int64 { return keyword.ReadCounters().IndexBuilds }
	hits := func() int64 { return counter(w, "px_search_index_hits_total") }
	builds := indexBuilds()

	req := keyword.Request{Keywords: []string{"kafka"}}
	if _, err := w.Search("lib", req); err != nil {
		t.Fatal(err)
	}
	if s, h, b := counter(w, "px_searches_total"), hits(), indexBuilds(); s != 1 || h != 0 || b != builds+1 {
		t.Fatalf("after first search: %d searches, %d index hits, %d builds", s, h, b-builds)
	}
	if _, err := w.Search("lib", req); err != nil {
		t.Fatal(err)
	}
	if h, b := hits(), indexBuilds(); h != 1 || b != builds+1 {
		t.Fatalf("second search did not reuse the index: %d index hits, %d builds", h, b-builds)
	}

	// Two mutations publish two versions; only the one that is searched
	// gets an index, and the search sees its content.
	for _, ins := range []string{"note:kafka", "note:other"} {
		tx := update.New(tpwj.MustParseQuery("lib $l"), 1, update.Insert("l", tree.MustParse(ins)))
		if _, err := w.Update("lib", tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := indexBuilds(); got != builds+1 {
		t.Fatalf("updates built %d indexes, want none until searched", got-builds-1)
	}
	res, err := w.Search("lib", req)
	if err != nil {
		t.Fatal(err)
	}
	if h, b := hits(), indexBuilds(); b != builds+2 || h != 1 {
		t.Fatalf("search after two updates: %d index hits, %d builds; want exactly one more build", h, b-builds)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("post-update answers = %+v, want the inserted note too", res.Answers)
	}

	if err := w.Drop("lib"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Search("lib", req); !errors.Is(err, ErrNotFound) {
		t.Errorf("search of a dropped document: %v, want ErrNotFound", err)
	}
	if got := indexBuilds(); got != builds+2 {
		t.Errorf("index builds = %d, want %d", got, builds+2)
	}
}

// TestSearchConcurrent exercises concurrent searches against concurrent
// updates of the same document (run with -race).
func TestSearchConcurrent(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("lib", searchDoc()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := w.Search("lib", keyword.Request{Keywords: []string{"kafka"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			tx := update.New(tpwj.MustParseQuery("lib $l"), 0.5, update.Insert("l", tree.MustParse("note:extra")))
			if _, err := w.Update("lib", tx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
