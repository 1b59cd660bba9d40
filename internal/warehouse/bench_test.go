package warehouse

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

// BenchmarkWarehouseParallelUpdates measures mutation throughput when
// goroutines update distinct documents. The transaction matches nothing
// (the document never grows, so every iteration costs the same) but
// still runs the full durable path: one journal record, flushed and
// fsynced. The durable phases of different documents interleave freely
// and their fsyncs group-commit, so throughput should scale with
// goroutines instead of serializing. journal_B/op is the journal's
// payload bytes per update (px_journal_bytes_total).
func BenchmarkWarehouseParallelUpdates(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			w, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			names := make([]string, workers)
			for i := range names {
				names[i] = fmt.Sprintf("doc%d", i)
				if err := w.Create(names[i], stressDoc()); err != nil {
					b.Fatal(err)
				}
			}
			tx := update.New(tpwj.MustParseQuery("Z $a"), 0.5,
				update.Insert("a", tree.MustParse("N")))
			perWorker := b.N/workers + 1
			bytes := w.jc.bytes.Value()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(name string, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := w.Update(name, tx); err != nil {
							b.Error(err)
							return
						}
					}
				}(names[g], perWorker)
			}
			wg.Wait()
			b.ReportMetric(float64(w.jc.bytes.Value()-bytes)/float64(workers*perWorker), "journal_B/op")
		})
	}
}

// BenchmarkWarehouseUpdateJournal measures what the journal costs per
// update of an update_durable-shaped document (256 keyed sections)
// under the seeded insert/delete stream of the replay tests, with
// update_durable's one Simplify in 50: journal_B/op is the payload
// bytes per mutation, full_state/op the share of records carrying the
// document's full state.
func BenchmarkWarehouseUpdateJournal(b *testing.B) {
	w, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	r := rand.New(rand.NewSource(1))
	if err := w.Create("doc", shapeDoc(r, 256, 16)); err != nil {
		b.Fatal(err)
	}
	s := &mutationStream{r: r, sections: 256, simplifyEvery: 50}
	bytes, full := w.jc.bytes.Value(), w.jc.fullState.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.next(b, w, "doc")
	}
	b.ReportMetric(float64(w.jc.bytes.Value()-bytes)/float64(b.N), "journal_B/op")
	b.ReportMetric(float64(w.jc.fullState.Value()-full)/float64(b.N), "full_state/op")
}

// BenchmarkOpenReplay measures Open of a warehouse holding one
// update_durable-shaped document (256 keyed sections) whose journal
// ends in a tail of 0, 16 or fullStateEvery-1 Tx-only records of the
// same stream: the replay cost fullStateEvery bounds. The directory is left as a kill
// leaves it, so the first Open also rewrites the stale page and the
// rest only replay and compare.
func BenchmarkOpenReplay(b *testing.B) {
	for _, tail := range []int{0, 16, fullStateEvery - 1} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			dir := b.TempDir()
			w, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			if err := w.Create("doc", shapeDoc(r, 256, 16)); err != nil {
				b.Fatal(err)
			}
			s := &mutationStream{r: r, sections: 256, simplifyEvery: 50}
			for i := 0; i < tail; i++ {
				s.next(b, w, "doc")
			}
			image := copyWarehouseDir(b, dir)
			w.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := Open(image)
				if err != nil {
					b.Fatal(err)
				}
				if got := o.JournalStats().RecoveryTxReplayed; got != int64(tail) {
					b.Fatalf("Open replayed %d records, want %d", got, tail)
				}
				o.Close()
			}
		})
	}
}
