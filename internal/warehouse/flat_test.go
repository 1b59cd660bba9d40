package warehouse

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

// flattens reads px_tpwj_flattens_total, which every tpwj.Flatten and
// FlattenFuzzy call charges.
func flattens() int64 {
	return obs.Default().Counter("px_tpwj_flattens_total", "").Value()
}

// TestSnapshotFlattensOncePerVersion pins the flat form as a property
// of the version: eight goroutines reading one fresh version — exact
// and Monte-Carlo queries, a view registration and read, keyword
// searches — flatten it exactly once between them, and an update adds
// exactly one more for the new version beside the per-call flatten of
// ApplyFuzzy's clone. Run under -race. It reads a process-wide
// counter, so it must not run in parallel with other tests.
func TestSnapshotFlattensOncePerVersion(t *testing.T) {
	w := openTemp(t)
	if err := w.Create("d", gen.Sections(rand.New(rand.NewSource(1)), 64)); err != nil {
		t.Fatal(err)
	}
	q := tpwj.MustParseQuery("A(S(K=s3, T $x))")
	readAll := func(register bool) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var err error
				switch {
				case g%4 == 0:
					_, err = w.Query("d", q)
				case g%4 == 1:
					_, err = w.QueryMC("d", q, 100, rand.New(rand.NewSource(int64(g))))
				case g%4 == 2:
					var s *Snapshot
					if s, err = w.Snapshot(context.Background(), "d"); err == nil {
						_, err = s.Search(context.Background(), keyword.Request{Keywords: []string{"kw01"}})
					}
				case g == 3 && register:
					if _, err = w.RegisterView("d", "v", "A(S(C=c1, K $k))", ""); err == nil {
						_, err = w.ReadView("d", "v")
					}
				case register: // the view may not exist yet
					_, err = w.Query("d", q)
				default:
					_, err = w.ReadView("d", "v")
				}
				if err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
	}
	before := flattens()
	readAll(true)
	if n := flattens() - before; n != 1 {
		t.Errorf("readers of one version flattened it %d times, want 1", n)
	}

	tx := update.New(tpwj.MustParseQuery("A(S $s(K=s5))"), 0.9, update.Insert("s", tree.MustParse("G(L:new)")))
	before = flattens()
	if _, err := w.Update("d", tx); err != nil {
		t.Fatal(err)
	}
	readAll(false)
	if n := flattens() - before; n != 2 {
		t.Errorf("an update and the readers of its version flattened %d times, want 2 (ApplyFuzzy's clone, the new version)", n)
	}
}

// TestSnapshotQueryBytesIndependentOfSize checks that a query on a
// version that has been read before allocates for its answers, not for
// the document: before the flat form was kept per version, every query
// re-flattened the snapshot, O(nodes) bytes (≈ 99 KB per 2049 nodes).
func TestSnapshotQueryBytesIndependentOfSize(t *testing.T) {
	w := openTemp(t)
	q := tpwj.MustParseQuery("A(S(K=s3, T $x))")
	perQuery := func(name string, sections int) float64 {
		t.Helper()
		if err := w.Create(name, gen.Sections(rand.New(rand.NewSource(1)), sections)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Query(name, q); err != nil { // the version's first reader
			t.Fatal(err)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := w.Query(name, q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, big := perQuery("small", 64), perQuery("big", 512)
	t.Logf("bytes per repeated point query: %.0f on 257 nodes, %.0f on 2049", small, big)
	if big > 2*small {
		t.Errorf("a repeated point query allocates %.0f bytes on 2049 nodes, %.0f on 257: want at most 2x", big, small)
	}
}
