// Command pxbench regenerates every experiment table of the
// reproduction (E1–E10; `pxbench -list` names them): the paper's
// worked examples as golden checks, the two commutation theorems with
// their fuzzy-vs-possible-worlds performance shape, the deletion
// blow-up, simplification, warehouse throughput, Monte-Carlo accuracy
// and query scaling.
//
// Usage:
//
//	pxbench             # run all experiments
//	pxbench -e E3,E5    # run selected experiments
//	pxbench -list       # name the experiments
//
// pxbench prints tables only; the performance trajectory
// (BENCH_<date>.json) comes from the benchmark harness, see README.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		sel  = flag.String("e", "", "comma-separated experiment ids (default: all)")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var chosen []exp.Experiment
	if *sel == "" {
		chosen = exp.All()
	} else {
		for _, id := range strings.Split(*sel, ",") {
			id = strings.TrimSpace(id)
			e := exp.Get(strings.ToUpper(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "pxbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			chosen = append(chosen, *e)
		}
	}

	failed := 0
	for _, e := range chosen {
		t := e.Run()
		t.Render(os.Stdout)
		if !t.OK {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pxbench: %d experiment(s) FAILED\n", failed)
		os.Exit(1)
	}
}
