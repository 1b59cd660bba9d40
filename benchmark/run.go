package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/xmlio"
)

// metric is one reported number. Samples is how many observations a
// timing rests on (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runConfig selects one run of one workload.
type runConfig struct {
	W       *workload
	Seed    int64
	Seconds float64
	// Scale shrinks every op count (the smoke test runs at 1/50); the
	// frozen rate and limit are not scaled.
	Scale   float64
	Backend string
	// Dir is the scratch root; the run works in a fresh subdirectory
	// and removes it.
	Dir string
	// TraceDir receives trace-<workload>.json from a traced run.
	TraceDir string
}

// runRecord is one run in the JSON envelope.
type runRecord struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Backend     string            `json:"backend"`
	Filesystem  string            `json:"filesystem"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Checks      int               `json:"checks"`
	Mismatches  int               `json:"mismatches"`
	Notes       []string          `json:"notes,omitempty"`
	Saturated   bool              `json:"saturated"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Diagnostics are numbers an end-to-end run measures beside its
	// contract metrics (the load generator's health, per-route
	// latencies); the traced run reports the same names as metrics.
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
	// Routes is a traced run's ranked by-layer cost per route.
	Routes []routeCost `json:"routes,omitempty"`
}

func (r *runRecord) correct() bool { return r.Mismatches == 0 && r.Failed == 0 }

// setupReps is how many times phase 1 runs; setup_s is the median and
// the last instance serves the measured phases. rounds is how many
// closed and open chunks the measured ops are dealt into.
const (
	setupReps = 5
	rounds    = 3
)

// chunk is one stretch of the op stream run in one mode: first is the
// stream index of its first op.
type chunk struct {
	first int
	res   phaseResult
}

// merge joins the chunks of one mode for the whole-phase numbers.
func merge(chunks []chunk) phaseResult {
	var all phaseResult
	for _, ch := range chunks {
		all.Samples = append(all.Samples, ch.res.Samples...)
		all.Wall += ch.res.Wall
		all.BacklogMax = max(all.BacklogMax, ch.res.BacklogMax)
	}
	return all
}

// scratch creates the run's private directory under cfg.Dir.
func (cfg *runConfig) scratch() (string, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.Dir, cfg.W.Name+"-")
}

// runEndToEnd measures the end-to-end metrics of one workload: set-up,
// closed phase, open phase, then the output and recovery checks.
func runEndToEnd(cfg runConfig) (*runRecord, error) {
	w := cfg.W.scaled(cfg.Scale)
	work, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	sd, m, err := newSeedData(cfg.Seed, w)
	if err != nil {
		return nil, err
	}
	warmN, closedN, openN := w.opCounts(cfg.Seconds, cfg.Scale)
	ops := newGenerator(cfg.Seed, w).ops(warmN + closedN + openN)
	warm := ops[:warmN]

	var (
		in       *instance
		lg       *loadgen
		warmRes  phaseResult
		setupSec []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if in != nil {
			lg.close()
			if err := in.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		in, lg, warmRes, took, err = setUp(filepath.Join(work, fmt.Sprintf("wh%d", rep)), cfg.Backend, sd, warm)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, took.Seconds())
	}
	defer func() {
		lg.close()
		in.stop() //nolint:errcheck // the run's result is already decided
	}()

	rec := &runRecord{Workload: w.Name, Seed: cfg.Seed, Backend: in.wh.Backend(), Filesystem: filesystemOf(in.dir),
		Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	fsync, err := fsyncProbe(in.dir, 100)
	if err != nil {
		return nil, err
	}
	rec.Diagnostics["store.fsync_probe_us"] = metric{Value: micros(fsync), Unit: "us", Samples: 100}

	// The measured ops run as rounds of a closed chunk followed by an
	// open chunk, in stream order, so that a slow spell of the sandbox
	// that outlasts one chunk still leaves quiet stretches of both kinds.
	chunks := []chunk{{first: 0, res: warmRes}}
	var closedChunks, openChunks []chunk
	for r, pos := 0, warmN; r < rounds; r++ {
		c := chunk{first: pos, res: lg.closed(ops[pos : pos+closedN/rounds])}
		pos += closedN / rounds
		o := chunk{first: pos, res: lg.open(ops[pos:pos+openN/rounds], w.Rate)}
		pos += openN / rounds
		chunks = append(chunks, c, o)
		closedChunks, openChunks = append(closedChunks, c), append(openChunks, o)
	}
	closedRes, openRes := merge(closedChunks), merge(openChunks)
	checkStart := time.Now()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	diskBytes, err := dirBytes(in.dir)
	if err != nil {
		return nil, err
	}

	// Output check, off the request path.
	for _, ch := range chunks {
		if err := m.replay(ops[ch.first:ch.first+len(ch.res.Samples)], ch.res); err != nil {
			return nil, err
		}
		rec.Attempted += len(ch.res.Samples)
		rec.Failed += ch.res.failed()
	}
	want, err := m.hashes()
	if err != nil {
		return nil, err
	}
	rec.Fingerprint = fingerprint(want)
	var ck checker
	ck.checkDocs(lg.conns[0], want)
	ck.checkQueries(lg.conns[0], m, sampleQueries(cfg.Seed, w, ops, checkedQueries(cfg.Scale)))
	recoverStart := time.Now()
	recoverTime, recoverReps, err := ck.checkRecovery(in.dir, filepath.Join(work, "recovered"), cfg.Backend,
		time.Duration(float64(recoverBudget)*min(cfg.Scale, 1)), want)
	if err != nil {
		return nil, err
	}
	rec.Checks, rec.Mismatches, rec.Notes = ck.Checks, ck.Mismatches, ck.Notes

	var liveBytes int64
	for _, ft := range m.docs {
		data, err := xmlio.DocXML(ft)
		if err != nil {
			return nil, err
		}
		liveBytes += int64(len(data))
	}

	rec.Saturated = routeLatencies(rec.Diagnostics, w, openRes)
	for name, d := range map[string]time.Duration{
		"phase.closed_s": closedRes.Wall, "phase.open_s": openRes.Wall,
		"phase.check_s": recoverStart.Sub(checkStart), "phase.recover_s": time.Since(recoverStart),
	} {
		rec.Diagnostics[name] = metric{Value: d.Seconds(), Unit: "s"}
	}
	service := latenciesMS(closedRes.Samples, "")
	for _, p := range []float64{50, 99, 100} {
		rec.Diagnostics[fmt.Sprintf("closed.p%g_ms", p)] = metric{Value: quantile(service, p), Unit: "ms", Samples: len(service)}
	}
	rec.Metrics["setup_s"] = metric{Value: median(setupSec), Unit: "s", Samples: len(setupSec)}
	rec.Metrics["ops_per_s"] = metric{Value: quietRate(closedChunks, w.stretchOps()), Unit: "1/s", Samples: closedN}
	rec.Metrics["p50_ms"] = metric{Value: quietMedian(openChunks, w.stretchOps()), Unit: "ms", Samples: openN}
	rec.Diagnostics["closed.wall_ops_per_s"] = metric{Value: float64(closedN-closedRes.failed()) / closedRes.Wall.Seconds(), Unit: "1/s", Samples: closedN}
	rec.Metrics["recover_s"] = metric{Value: recoverTime.Seconds(), Unit: "s", Samples: recoverReps}
	rec.Metrics["disk_bytes_per_live_byte"] = metric{Value: float64(diskBytes) / float64(liveBytes), Unit: "ratio"}
	rec.Metrics["live_heap_mb"] = metric{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MiB"}
	return rec, nil
}

// checkedQueries is how many sampled queries the output check
// re-evaluates.
func checkedQueries(scale float64) int { return max(4, int(100*min(scale, 1))) }

// routeLatencies stores the per-route open-phase latencies and the
// load-generator health numbers in dst, and reports whether the
// generator ran later than the latency limit (a saturated run). A route
// with no sample on a workload reports 0.
func routeLatencies(dst map[string]metric, w *workload, res phaseResult) (saturated bool) {
	for _, k := range []struct {
		kind string
		p99  bool
	}{{kindQuery, true}, {kindSearch, false}, {kindUpdate, true}, {kindViewRead, false}} {
		lat := latenciesMS(res.Samples, k.kind)
		dst["route."+k.kind+"_p50_ms"] = metric{Value: quantile(lat, 50), Unit: "ms", Samples: len(lat)}
		if k.p99 {
			dst["route."+k.kind+"_p99_ms"] = metric{Value: quantile(lat, 99), Unit: "ms", Samples: len(lat)}
		}
	}
	within := 0
	late := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		if s.OK && millis(s.Latency) <= w.LimitMS {
			within++
		}
		late[i] = millis(s.Late)
	}
	n := len(res.Samples)
	lateP99 := quantile(late, 99)
	dst["loadgen.p99_ms"] = metric{Value: quantile(latenciesMS(res.Samples, ""), 99), Unit: "ms", Samples: n}
	dst["loadgen.within_limit_ratio"] = metric{Value: float64(within) / float64(n), Unit: "ratio", Samples: n}
	dst["loadgen.late_p99_ms"] = metric{Value: lateP99, Unit: "ms", Samples: n}
	dst["loadgen.backlog_max"] = metric{Value: float64(res.BacklogMax), Unit: "count"}
	return lateP99 > w.LimitMS
}

// filesystemOf names the filesystem type holding dir, from
// /proc/mounts (longest mount-point prefix); "unknown" elsewhere. It is
// recorded so latencies are read as this sandbox's, not a device's.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fstype := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, fields[2]
		}
	}
	return fstype
}

// fsyncProbe is the median time of n 4 KiB write+fsync pairs in dir.
func fsyncProbe(dir string, n int) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	times := make([]time.Duration, n)
	for i := range times {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[n/2], nil
}
