package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-th percentile (nearest rank) of values, 0 for
// none.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMS returns the latencies, in ms, of the samples of one op
// kind ("" for all).
func latenciesMS(samples []sample, kind string) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if kind == "" || s.Kind == kind {
			out = append(out, millis(s.Latency))
		}
	}
	return out
}

// minStretchOps is the least number of ops of one client a stretch of
// the quiet-period statistics holds.
const minStretchOps = 50

// stretchOps is the length, in ops of one client, of the stretches a
// workload's phases are cut into: the smallest multiple of its op-kind
// deck that reaches minStretchOps. Stretches start on deck boundaries,
// so every stretch of a workload carries the same mix of op kinds.
func (w *workload) stretchOps() int {
	deck := 0
	for _, n := range w.Mix {
		deck += n
	}
	return deck * ((minStretchOps + deck - 1) / deck)
}

// The reference sandbox's cores run 1.5 to 2 times slower for 0.5 to
// 5 s at a time, about a third of the time and in regimes that last
// minutes, so a statistic over a whole phase moves by 20 % between runs
// of identical code. Interference only ever adds time. The two
// functions below therefore cut a phase into stretches of 50 to 100
// ops per client (tenths of a second) and report the better tail of the
// stretches: what the code does when the machine leaves it alone, which
// is the quantity two versions of the code can be compared on.

// stretches cuts a phase into deck-aligned stretches of n ops per
// client. first is the stream index of the phase's first op; a stretch
// holds the ops whose per-client stream index falls in one multiple of
// n, and only whole stretches are kept (the whole phase, if it holds
// none).
func stretches(samples []sample, first, n int) [][]sample {
	span := n * clients
	start := (span - first%span) % span
	var out [][]sample
	for ; start+span <= len(samples); start += span {
		out = append(out, samples[start:start+span])
	}
	if len(out) == 0 {
		out = append(out, samples)
	}
	return out
}

func allStretches(chunks []chunk, n int) [][]sample {
	var out [][]sample
	for _, ch := range chunks {
		out = append(out, stretches(ch.res.Samples, ch.first, n)...)
	}
	return out
}

// quietRate is the closed phase's throughput in ops/s. A stretch's rate
// is, per client, its ops over the sum of their latencies (a
// closed-loop client is never idle), summed over the clients; the
// result is the 90th percentile of the stretch rates.
func quietRate(chunks []chunk, n int) float64 {
	var rates []float64
	for _, st := range allStretches(chunks, n) {
		var busy [clients]time.Duration
		var done [clients]int
		for i, s := range st {
			if s.OK {
				busy[i%clients] += s.Latency
				done[i%clients]++
			}
		}
		rate := 0.0
		for c := range busy {
			if busy[c] > 0 {
				rate += float64(done[c]) / busy[c].Seconds()
			}
		}
		rates = append(rates, rate)
	}
	return quantile(rates, 90)
}

// quietMedian is the open phase's median latency in ms: the 10th
// percentile of the stretches' medians.
func quietMedian(chunks []chunk, n int) float64 {
	var medians []float64
	for _, st := range allStretches(chunks, n) {
		medians = append(medians, quantile(latenciesMS(st, ""), 50))
	}
	return quantile(medians, 10)
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the acceptance driver uses. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
