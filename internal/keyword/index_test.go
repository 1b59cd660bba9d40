package keyword

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/tpwj"
)

// TestIndexSharesTheDocTable pins what a keyword index adds to its
// version's resident state once the flat Doc is there: postings, path
// conditions and satisfiability, not a second copy of the structure.
// It measures the live heap, so it must not run in parallel with other
// tests.
func TestIndexSharesTheDocTable(t *testing.T) {
	d := tpwj.FlattenFuzzy(gen.Sections(rand.New(rand.NewSource(1)), 512))
	ix := IndexDoc(d)
	if ix.Len() != d.Len() {
		t.Fatalf("index has %d nodes, document %d", ix.Len(), d.Len())
	}
	perNode := float64(retainedBy(func() { ix = nil })) / float64(d.Len())
	runtime.KeepAlive(d)
	t.Logf("%d nodes, %.1f index bytes per node", d.Len(), perNode)
	if perNode > 95 {
		t.Errorf("the index retains %.1f bytes per node beside its Doc, want at most 95 (135 with its own node table)", perNode)
	}
}

// retainedBy returns how many bytes of live heap die with drop, as
// xmlio's parser test measures them: the live heap after full
// collections (doubled, because sync.Pool contents survive one as
// victims), minus the live heap after drop and another.
func retainedBy(drop func()) int64 {
	var live, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	drop()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return int64(live.HeapAlloc) - int64(freed.HeapAlloc)
}
