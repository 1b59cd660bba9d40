// Command pxsim is the traffic generator and scale-benchmark harness:
// it simulates N tenants driving a configurable query / search /
// update / view mix against a running pxserve, with Zipf-distributed
// document popularity, a seeded RNG for full reproducibility, and a
// token-bucket rate controller.
//
// pxsim is self-verifying: it maintains an expected-state model of
// every document it touches and audits the server against it at the
// end of the run — /stats and /metrics counter reconciliation, content
// hashes, view registries and answers. Any discrepancy fails the run
// with exit status 1, so a clean pxsim run is a correctness check, not
// just a load test. The audit requires pxsim to be the server's only
// client for the duration of the run.
//
// Usage:
//
//	pxserve -dir /tmp/wh -addr :8080 &
//	pxsim -endpoint http://localhost:8080 -tenants 8 -ops 5000 -seed 42
//	pxsim -endpoint http://localhost:8080 -duration 10s -rate 200 -speed 2
//	pxsim -endpoint http://localhost:8080 -json-out sim.json
//
// See docs/SIMULATION.md for the full flag reference, the mix format,
// and the oracle semantics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/sim"
)

func main() {
	var (
		endpoint = flag.String("endpoint", "", "pxserve base URL (required), e.g. http://127.0.0.1:8080")
		tenants  = flag.Int("tenants", 4, "number of tenants")
		docs     = flag.Int("docs", 2, "documents per tenant")
		seed     = flag.Int64("seed", 1, "RNG seed; equal seeds give byte-identical workloads")
		mixFlag  = flag.String("mix", "", "op mix as kind=weight,... (default \""+sim.DefaultMix().String()+"\")")
		zipf     = flag.Float64("zipf", 1.2, "Zipf skew of document popularity (> 1)")
		ops      = flag.Int64("ops", 0, "operation budget (default 1000 when -duration is unset)")
		duration = flag.Duration("duration", 0, "wall-clock budget (whichever of -ops/-duration hits first ends the run)")
		rate     = flag.Float64("rate", 0, "target ops/sec before -speed scaling (0 = unthrottled)")
		speed    = flag.Float64("speed", 1, "rate multiplier applied to -rate")
		burst    = flag.Int("burst", 0, "token bucket depth (default 2×workers)")
		workers  = flag.Int("workers", 4, "executor goroutines; documents are partitioned across them")
		sections = flag.Int("sections", 4, "sections per initial document")
		events   = flag.Int("events", 4, "events per initial document")
		check    = flag.Int64("check-every", 8, "spot-check every Nth op against local evaluation (0 = off)")
		logPath  = flag.String("log", "", "write the deterministic workload log to this file")
		jsonOut  = flag.String("json-out", "", "write the machine-readable run report to this file")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pxsim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *endpoint == "" {
		fmt.Fprintln(os.Stderr, "pxsim: -endpoint is required")
		flag.Usage()
		os.Exit(2)
	}

	mix := sim.DefaultMix()
	if *mixFlag != "" {
		var err error
		if mix, err = sim.ParseMix(*mixFlag); err != nil {
			fmt.Fprintf(os.Stderr, "pxsim: %v\n", err)
			os.Exit(2)
		}
	}

	cfg := sim.Config{
		Endpoint:      *endpoint,
		Tenants:       *tenants,
		DocsPerTenant: *docs,
		Seed:          *seed,
		Mix:           mix,
		ZipfS:         *zipf,
		Ops:           *ops,
		Duration:      *duration,
		Rate:          *rate,
		Speed:         *speed,
		Burst:         *burst,
		Workers:       *workers,
		Sections:      *sections,
		Events:        *events,
		CheckEvery:    *check,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pxsim: "+format+"\n", args...)
		}
	}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close() //nolint:errcheck
		cfg.LogW = f
	}

	rep, err := sim.Run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	render(rep)

	if *jsonOut != "" {
		if err := writeReport(rep, *jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if rep.Audit.DiscrepancyCount > 0 {
		fmt.Fprintf(os.Stderr, "pxsim: AUDIT FAILED: %d discrepancies\n", rep.Audit.DiscrepancyCount)
		for _, d := range rep.Audit.Discrepancies {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Printf("audit clean: %d checks, 0 discrepancies\n", rep.Audit.Checks)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pxsim: %v\n", err)
	os.Exit(1)
}

// render prints the human-readable run summary: totals, then one line
// per route with client-side throughput and latency percentiles.
func render(rep *sim.Report) {
	fmt.Printf("pxsim run: %d ops in %.2fs (%.1f events/sec), %d errors, seed %d, mix %s\n",
		rep.Ops, rep.DurationSeconds, rep.EventsPerSec, rep.Errors, rep.Seed, rep.Mix)
	fmt.Printf("%-30s %8s %6s %9s %8s %8s %8s %8s\n",
		"route", "reqs", "errs", "ev/s", "p50ms", "p95ms", "p99ms", "maxms")
	for _, rr := range rep.Routes {
		fmt.Printf("%-30s %8d %6d %9.1f %8.3f %8.3f %8.3f %8.3f\n",
			rr.Route, rr.Requests, rr.Errors, rr.EventsPerSec, rr.P50MS, rr.P95MS, rr.P99MS, rr.MaxMS)
	}
	a := rep.Audit
	fmt.Printf("audit: checks=%d discrepancies=%d degraded=%v failed_writes=%d ambiguous(applied=%d aborted=%d)\n",
		a.Checks, a.DiscrepancyCount, a.Degraded, a.FailedWrites,
		a.AmbiguousApplied, a.AmbiguousAborted)
	fmt.Print("engine:")
	for _, k := range slices.Sorted(maps.Keys(rep.Engine)) {
		name := strings.TrimSuffix(strings.TrimPrefix(k, "px_engine_"), "_total")
		fmt.Printf(" %s=%.0f", name, rep.Engine[k])
	}
	fmt.Println()
}

// writeReport writes the run report to path as indented JSON.
func writeReport(rep *sim.Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
