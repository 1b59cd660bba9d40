package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads:
// the end-to-end metrics with their direction and bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &env, nil
}

// values collects one metric's values over the untraced runs of one
// workload, and the worst failed ratio among them.
func (env *envelope) values(workload, name string) (vals []float64, failedRatio float64) {
	for _, r := range env.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
		if r.Attempted > 0 {
			failedRatio = max(failedRatio, float64(r.Failed)/float64(r.Attempted))
		}
	}
	return vals, failedRatio
}

// summary is one side's median and quartiles of one metric.
type summary struct {
	n           int
	med, q1, q3 float64
}

func summarize(vals []float64) summary {
	s := summary{n: len(vals), med: median(vals)}
	s.q1, s.q3 = s.med, s.med
	if len(vals) >= 2 {
		s.q1, s.q3 = quartiles(vals)
	}
	return s
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise of one side.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// verdict judges B against A for one metric: "unresolved" when A's own
// spread exceeds the bound, "worse" when B's median is worse than A's
// by more than the bound, "better" when it is better by more than A's
// spread, "same" otherwise.
func verdict(spec metricSpec, a, b summary) string {
	if a.spread() > spec.Bound {
		return "unresolved"
	}
	change := ratio(b.med-a.med, a.med) // positive: B is larger
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		return "worse"
	case change < 0 && -change > a.spread():
		return "better"
	default:
		return "same"
	}
}

// compareMain implements `benchmark compare a.json b.json`: per
// workload and end-to-end metric, each side's median and quartiles and
// B's verdict against A under the bounds in BENCHMARK.json. It exits 1
// on any "worse" or on a higher failed ratio.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json   (run from the repository root)")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	a, err := readEnvelope(args[0])
	if err == nil {
		var b *envelope
		if b, err = readEnvelope(args[1]); err == nil {
			return compareEnvelopes(bf, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
	return 2
}

func compareEnvelopes(bf *benchmarkFile, a, b *envelope) int {
	status := 0
	fmt.Printf("%-15s %-26s %-6s %34s %34s  %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "verdict")
	for _, w := range bf.Workloads {
		var failA, failB float64
		for _, spec := range bf.EndToEnd {
			va, fa := a.values(w.Name, spec.Name)
			vb, fb := b.values(w.Name, spec.Name)
			failA, failB = fa, fb
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			v := verdict(spec, sa, sb)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-15s %-26s %-6s %34s %34s  %s\n", w.Name, spec.Name, spec.Unit, sa, sb, v)
		}
		if failB > failA {
			fmt.Printf("%-15s failed ratio rose from %g to %g\n", w.Name, failA, failB)
			status = 1
		}
	}
	return status
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.med, s.q1, s.q3, s.n)
}
