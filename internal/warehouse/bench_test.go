package warehouse

import (
	"fmt"
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
// goroutines instead of serializing.
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
				}(names[g], b.N/workers+1)
			}
			wg.Wait()
		})
	}
}
