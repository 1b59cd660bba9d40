// Command benchmark is the repository's benchmark: four seeded HTTP
// workloads against an in-process pxserve, end-to-end latency,
// throughput, durability and space metrics, and a separate traced run
// that attributes the handler's time to the layers. See README.md in
// this directory.
//
// Usage:
//
//	go run ./benchmark                                  all workloads, both runs
//	go run ./benchmark -workload query_cold -trace 0    end-to-end metrics only
//	go run ./benchmark -workload query_cold -trace 1    per-layer metrics only
//	go run ./benchmark -repeat 3 -out a.json            three runs per workload
//	go run ./benchmark compare a.json b.json            verdict per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// resultLine is the last line a run prints: the contract with the
// acceptance driver.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envelope is the JSON file one invocation writes: every run it made.
type envelope struct {
	Command string       `json:"command"`
	Runs    []*runRecord `json:"runs"`
	Claim   *string      `json:"claim"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all): "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed of documents, op stream and checks")
		seconds = fs.Float64("seconds", 20, "measured seconds the phases are sized for at this commit")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
		backend = fs.String("store", "auto", "storage backend: filestore, kv or auto (pxserve's default)")
		dir     = fs.String("dir", filepath.Join("benchmark", "out", "tmp"), "scratch root for warehouse directories")
		out     = fs.String("out", filepath.Join("benchmark", "out", "bench.json"), "JSON envelope to write")
		scale   = fs.Float64("scale", 1, "multiplier on every op count (the smoke test uses 0.02)")
		repeat  = fs.Int("repeat", 1, "runs per workload, alternating workload order")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	if *name == "" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}

	env := envelope{Command: "go run ./benchmark " + strings.Join(args, " ")}
	status := 0
	for rep := 0; rep < *repeat; rep++ {
		order := append([]*workload(nil), selected...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cfg := runConfig{W: w, Seed: *seed, Seconds: *seconds, Scale: *scale, Backend: *backend, Dir: *dir, TraceDir: filepath.Dir(*out)}
			for _, traced := range []bool{false, true} {
				if *trace >= 0 && traced != (*trace == 1) {
					continue
				}
				run := runEndToEnd
				if traced {
					run = runTraced
				}
				rec, err := run(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				env.Runs = append(env.Runs, rec)
				if err := writeEnvelope(*out, &env); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				report(rec)
				if !rec.correct() {
					status = 1
				}
			}
		}
	}
	return status
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func writeEnvelope(path string, env *envelope) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric of a run by name with its unit, the check
// counts, and the result line last.
func report(rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer"
	}
	fmt.Printf("== %s seed %d: %s metrics (%s on %s)\n", rec.Workload, rec.Seed, kind, rec.Backend, rec.Filesystem)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	line := resultLine{Correct: rec.correct(), Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]lineMetric{}}
	for _, n := range names {
		m := rec.Metrics[n]
		if m.Samples > 0 {
			fmt.Printf("%-44s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Printf("%-44s %14.4f %s\n", n, m.Value, m.Unit)
		}
		line.Metrics[n] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	diag := make([]string, 0, len(rec.Diagnostics))
	for n := range rec.Diagnostics {
		diag = append(diag, n)
	}
	sort.Strings(diag)
	for _, n := range diag {
		m := rec.Diagnostics[n]
		fmt.Printf("  (%s %.4f %s n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, rc := range rec.Routes {
		fmt.Printf("route %-9s %5d ops  handle %9.1f us/op; self time by layer:", rc.Route, rc.Ops, rc.HandleUS)
		for _, l := range rc.Layers {
			fmt.Printf("  %s %.1f", l.Layer, l.SelfUS)
		}
		fmt.Println()
	}
	if rec.Saturated {
		fmt.Println("saturated: the load generator ran later than the latency limit; the *_ms numbers are queueing, not latency")
	}
	fmt.Printf("checks %d mismatches %d attempted %d failed %d\n", rec.Checks, rec.Mismatches, rec.Attempted, rec.Failed)
	for _, note := range rec.Notes {
		fmt.Println("mismatch:", note)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	fmt.Println(string(data))
}
