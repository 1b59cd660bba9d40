package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/keyword"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/xmlio"
)

// scaleSizes are the document sizes of the scaling probes: 24, 256 and
// 2 560 sections of four nodes, about 10^2, 10^3 and 10^4 nodes.
var scaleSizes = []struct {
	tag      string
	sections int
	reps     int
}{{"n100", 24, 21}, {"n1k", 256, 9}, {"n10k", 2560, 3}}

var (
	scaleOnce   sync.Once
	scaleResult map[string]float64
)

// scaleProbes times five layer calls on documents of growing size and
// returns the median microseconds per call under scale.<layer>_us.<tag>.
// The documents do not depend on the run seed or the workload, so one
// process measures them once.
func scaleProbes(scale float64) map[string]float64 {
	scaleOnce.Do(func() {
		scaleResult = map[string]float64{}
		for _, sz := range scaleSizes {
			reps := sz.reps
			if scale < 1 {
				reps = 1
			}
			sh := docShape{Sections: sz.sections, Events: 16, SCond: 0.5, TLits: 1, Negated: true, Vocab: 64, WordsPerTitle: 2}
			doc := shapeDoc(rand.New(rand.NewSource(1)), sh, 0)
			data, err := xmlio.DocXML(doc)
			if err != nil {
				panic(err) // generated documents always encode
			}
			scan := tpwj.MustParseQuery("A(S(T $x))")
			tx := update.New(tpwj.MustParseQuery(fmt.Sprintf("A(S $s(K=s%d))", sz.sections/2)), 0.9,
				update.Insert("s", tree.MustParse("G(L:w1)")))
			probes := []struct {
				layer string
				call  func() error
			}{
				{"tpwj.symbolic", func() error { _, err := tpwj.EvalFuzzySymbolic(scan, doc); return err }},
				{"xmlio.encode_doc", func() error { _, err := xmlio.DocXML(doc); return err }},
				{"xmlio.parse_doc", func() error { _, err := xmlio.ParseDoc(data); return err }},
				{"keyword.index_build", func() error { keyword.NewIndex(doc); return nil }},
				{"update.apply", func() error { _, _, err := tx.ApplyFuzzy(doc); return err }},
			}
			for _, p := range probes {
				times := make([]float64, reps)
				for i := range times {
					start := time.Now()
					if err := p.call(); err != nil {
						panic(err) // fixed inputs: a failure is a bug in the probe
					}
					times[i] = micros(time.Since(start))
				}
				scaleResult["scale."+p.layer+"_us."+sz.tag] = median(times)
			}
		}
	})
	return scaleResult
}
