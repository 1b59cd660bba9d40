// Package exp is the experiment harness: every quantitative claim,
// worked example and theorem of the paper maps to one experiment
// (E1–E10, indexed by All and listed by `pxbench -list`), and each Run
// function regenerates the corresponding table. The cmd/pxbench binary renders them; the
// repository-root benchmarks measure the same code paths under
// testing.B.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's result in paper-table form.
type Table struct {
	ID     string
	Title  string
	Ref    string // paper locus (slide)
	Header []string
	Rows   [][]string
	Notes  []string
	// OK reports whether the experiment's correctness checks passed
	// (golden values, commutation, preservation properties).
	OK bool
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	status := "PASS"
	if !t.OK {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s — %s  [%s]  (%s)\n", t.ID, t.Title, status, t.Ref)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "golden possible-worlds example (slide 9)", RunE1},
		{"E2", "fuzzy-tree semantics and expressiveness (slide 12)", RunE2},
		{"E3", "query commutation and complexity shape (slide 13)", RunE3},
		{"E4", "update commutation and cost (slide 14)", RunE4},
		{"E5", "deletion blow-up: dependent vs independent (slide 14)", RunE5},
		{"E6", "golden conditional replacement (slide 15)", RunE6},
		{"E7", "fuzzy data simplification (slide 19)", RunE7},
		{"E8", "warehouse throughput and durability (slides 3, 16)", RunE8},
		{"E9", "Monte-Carlo estimation accuracy (scalable fallback)", RunE9},
		{"E10", "query evaluation scaling (slides 6, 19)", RunE10},
	}
}

// Get returns the experiment with the given id, or nil.
func Get(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			ecopy := e
			return &ecopy
		}
	}
	return nil
}

// timeIt runs fn repeatedly until ~minDuration has elapsed and returns
// the mean duration per call.
func timeIt(minDuration time.Duration, fn func()) time.Duration {
	// One warm-up call (also captures one-shot costs).
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	if elapsed >= minDuration {
		return elapsed
	}
	n := 1
	total := elapsed
	for total < minDuration && n < 1<<20 {
		batch := n
		start = time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		total += time.Since(start)
		n += batch
	}
	return total / time.Duration(n)
}

// us formats a duration as microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if a == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(b)/float64(a))
}
