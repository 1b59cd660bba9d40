package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/tpwj"
	"repro/internal/tree"
)

// AuditResult is the outcome of the end-of-run audit. A run is
// healthy iff DiscrepancyCount is zero; everything else is
// informational (degraded mode, ambiguity resolution, stale counts).
type AuditResult struct {
	// Checks counts individual verifications performed (counter
	// comparisons, content hashes, view reads, metric cross-checks).
	Checks int64 `json:"checks"`
	// DiscrepancyCount is exact; Discrepancies carries the first
	// messages (capped).
	DiscrepancyCount int64    `json:"discrepancy_count"`
	Discrepancies    []string `json:"discrepancies,omitempty"`
	// Degraded mirrors the server's end-of-run degraded state.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// StaleViewReads counts workload view reads served with the stale
	// flag set (tolerated by contract; only unflagged staleness is a
	// discrepancy).
	StaleViewReads int64 `json:"stale_view_reads"`
	// AmbiguousApplied / AmbiguousAborted count documents whose failed
	// tail write the audit resolved as actually-applied respectively
	// cleanly-aborted.
	AmbiguousApplied int64 `json:"ambiguous_applied"`
	AmbiguousAborted int64 `json:"ambiguous_aborted"`
	// FailedWrites counts write operations (updates, registrations)
	// the server did not acknowledge.
	FailedWrites int64 `json:"failed_writes"`
}

// Audit reconciles the expected-state model against the live server.
// Must be called after RunWorkload returned (no counted traffic in
// flight); its own requests are uncounted so the ledgers hold still.
//
// Order matters: counters first (while nothing moves them), then
// /metrics (whose workload-route families must equal the /stats view),
// then content and views (whose reads would otherwise not even matter
// — they are uncounted — but are kept last for log readability).
func (r *Runner) Audit() (*AuditResult, error) {
	a := &AuditResult{StaleViewReads: r.staleReads.Load()}

	stats, err := r.auditStats(a)
	if err != nil {
		return nil, err
	}
	r.auditSnap = stats
	a.Degraded = stats.Degraded
	a.DegradedReason = stats.DegradedReason
	if err := r.auditMetrics(a, stats); err != nil {
		return nil, err
	}
	if err := r.auditContent(a); err != nil {
		return nil, err
	}

	// Fold in discrepancies recorded during the workload (failed
	// oracle spot checks, unexpected statuses).
	r.discMu.Lock()
	a.DiscrepancyCount += r.discCount
	a.Discrepancies = append(a.Discrepancies, r.discList...)
	r.discMu.Unlock()
	if len(a.Discrepancies) > maxDiscrepancyMessages {
		a.Discrepancies = a.Discrepancies[:maxDiscrepancyMessages]
	}
	for _, d := range r.model.docs {
		a.FailedWrites += d.failedWrites
	}
	r.logf("audit: %d checks, %d discrepancies, degraded=%v, stale=%d, ambiguous applied=%d aborted=%d",
		a.Checks, a.DiscrepancyCount, a.Degraded, a.StaleViewReads, a.AmbiguousApplied, a.AmbiguousAborted)
	return a, nil
}

func (a *AuditResult) fail(format string, args ...any) {
	a.DiscrepancyCount++
	if len(a.Discrepancies) < maxDiscrepancyMessages {
		a.Discrepancies = append(a.Discrepancies, fmt.Sprintf(format, args...))
	}
}

// expectedRoute returns the client-side ledger for one route.
func (r *Runner) expectedRoute(route string) (sent, errs int64) {
	rs := r.cl.routes[route]
	return rs.sent.Load(), rs.errs.Load()
}

// routeSeries is the exposition key of one route's series in a family,
// the key /stats and /metrics both report it under.
func routeSeries(family, route string) string {
	return fmt.Sprintf("%s{route=%q}", family, route)
}

// auditStats fetches /stats and reconciles every workload route's
// request and error count against the client ledger. The server
// records a request's counters after its handler finishes writing the
// response, so a just-drained client can observe the last few requests
// not yet recorded — the reconciliation polls briefly before calling a
// mismatch real.
func (r *Runner) auditStats(a *AuditResult) (*server.StatsSnapshot, error) {
	var stats server.StatsSnapshot
	deadline := time.Now().Add(2 * time.Second)
	served := func(route string) (count, errs int64) {
		return int64(stats.Metrics[routeSeries("px_http_requests_total", route)]),
			int64(stats.Metrics[routeSeries("px_http_request_errors_total", route)])
	}
	for {
		status, body, err := r.cl.raw(http.MethodGet, "/stats", nil)
		if err != nil {
			return nil, fmt.Errorf("sim: audit /stats: %w", err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("sim: audit /stats: status %d", status)
		}
		if err := decode(body, &stats); err != nil {
			return nil, fmt.Errorf("sim: audit /stats: %w", err)
		}
		settled := true
		for _, route := range workloadRoutes {
			sent, errs := r.expectedRoute(route)
			if count, failed := served(route); count != sent || failed != errs {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, route := range workloadRoutes {
		sent, errs := r.expectedRoute(route)
		count, failed := served(route)
		a.Checks += 2
		if count != sent {
			a.fail("stats: route %s served %d requests, client sent %d", route, count, sent)
		}
		if failed != errs {
			a.fail("stats: route %s reports %d errors, client observed %d", route, failed, errs)
		}
	}
	return &stats, nil
}

// auditMetrics scrapes /metrics and cross-checks the workload-route
// families against the client ledger and the /stats snapshot: the
// request and error counters, the histogram sample counts, and the
// degraded gauge. Exposition parsing is exact-key — the route label
// values are the server's own Route* constants — and uses the same
// series keys as /stats.
func (r *Runner) auditMetrics(a *AuditResult, stats *server.StatsSnapshot) error {
	status, body, err := r.cl.raw(http.MethodGet, "/metrics", nil)
	if err != nil {
		return fmt.Errorf("sim: audit /metrics: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("sim: audit /metrics: status %d", status)
	}
	samples := parseExposition(string(body))
	for _, route := range workloadRoutes {
		sent, errs := r.expectedRoute(route)
		a.Checks += 3
		if got := samples[routeSeries("px_http_requests_total", route)]; int64(got) != sent {
			a.fail("metrics: px_http_requests_total{%s} = %g, client sent %d", route, got, sent)
		}
		// Zero-valued series may legitimately be absent (the error
		// counter is registered lazily per route).
		if got := samples[routeSeries("px_http_request_errors_total", route)]; int64(got) != errs {
			a.fail("metrics: px_http_request_errors_total{%s} = %g, client observed %d errors", route, got, errs)
		}
		if got := samples[routeSeries("px_http_request_seconds_count", route)]; int64(got) != sent {
			a.fail("metrics: px_http_request_seconds_count{%s} = %g, client sent %d", route, got, sent)
		}
	}
	a.Checks++
	degraded := samples["px_degraded"] != 0
	if degraded != stats.Degraded {
		a.fail("metrics: px_degraded = %v but /stats degraded = %v", degraded, stats.Degraded)
	}
	return nil
}

// auditContent re-reads every document and view and compares against
// the shadow model: content hashes (resolving ambiguous tails), node
// and event counts via /stat, the view registry, and every confirmed
// view's answers.
func (r *Runner) auditContent(a *AuditResult) error {
	for _, name := range r.model.order {
		d := r.model.docs[name]

		status, body, err := r.cl.raw(http.MethodGet, "/docs/"+name, nil)
		if err != nil {
			return fmt.Errorf("sim: audit read %s: %w", name, err)
		}
		a.Checks++
		if status != http.StatusOK {
			a.fail("audit: read %s: status %d: %s", name, status, errorBody(body))
			continue
		}
		sum := sha256.Sum256(body)
		chosen, appliedTail, ok := d.resolve(hex.EncodeToString(sum[:]))
		if !ok {
			a.fail("audit: %s content hash %s matches neither the expected state (%s) nor the ambiguous tail — lost or phantom update",
				name, hex.EncodeToString(sum[:])[:12], hashTree(d.tree)[:12])
			chosen = d.tree
		} else if d.alt != nil {
			if appliedTail {
				a.AmbiguousApplied++
			} else {
				a.AmbiguousAborted++
			}
		}

		// /stat must agree with the resolved tree's shape.
		status, body, err = r.cl.raw(http.MethodGet, "/docs/"+name+"/stat", nil)
		if err != nil {
			return fmt.Errorf("sim: audit stat %s: %w", name, err)
		}
		a.Checks++
		if status != http.StatusOK {
			a.fail("audit: stat %s: status %d", name, status)
		} else {
			var info server.DocInfo
			if err := decode(body, &info); err != nil {
				a.fail("audit: stat %s: undecodable: %v", name, err)
			} else if info.Nodes != chosen.Size() || info.Events != chosen.Table.Len() {
				a.fail("audit: stat %s reports %d nodes / %d events, shadow has %d / %d",
					name, info.Nodes, info.Events, chosen.Size(), chosen.Table.Len())
			}
		}

		// View registry: every confirmed view must be listed; listed
		// views must be confirmed or resolvable lost registrations.
		status, body, err = r.cl.raw(http.MethodGet, "/docs/"+name+"/views", nil)
		if err != nil {
			return fmt.Errorf("sim: audit views %s: %w", name, err)
		}
		a.Checks++
		if status != http.StatusOK {
			a.fail("audit: list views %s: status %d", name, status)
			continue
		}
		var vl server.ViewListResponse
		if err := decode(body, &vl); err != nil {
			a.fail("audit: list views %s: undecodable: %v", name, err)
			continue
		}
		listed := make(map[string]string, len(vl.Views))
		for _, v := range vl.Views {
			listed[v.Name] = v.Query
		}
		for v, q := range d.views {
			a.Checks++
			if lq, ok := listed[v]; !ok {
				a.fail("audit: view %s/%s acknowledged registered but not listed", name, v)
			} else if lq != q {
				a.fail("audit: view %s/%s has query %q, expected %q", name, v, lq, q)
			}
		}
		for v, q := range listed {
			if _, ok := d.views[v]; ok {
				continue
			}
			if mq, maybe := d.maybeViews[v]; maybe && mq == q {
				// The lost registration was applied after all.
				d.views[v] = q
				delete(d.maybeViews, v)
				continue
			}
			a.fail("audit: view %s/%s is registered server-side but was never acknowledged", name, v)
		}

		// Every confirmed view must now read fresh and match local
		// evaluation over the resolved tree.
		viewNames := make([]string, 0, len(d.views))
		for v := range d.views {
			viewNames = append(viewNames, v)
		}
		sort.Strings(viewNames)
		for _, v := range viewNames {
			q := d.views[v]
			status, body, err := r.cl.raw(http.MethodGet, "/docs/"+name+"/views/"+v, nil)
			if err != nil {
				return fmt.Errorf("sim: audit view %s/%s: %w", name, v, err)
			}
			a.Checks++
			if status != http.StatusOK {
				a.fail("audit: view %s/%s: status %d", name, v, status)
				continue
			}
			var vr server.ViewResponse
			if err := decode(body, &vr); err != nil {
				a.fail("audit: view %s/%s: undecodable: %v", name, v, err)
				continue
			}
			if vr.Stale {
				a.fail("audit: view %s/%s still stale after drain", name, v)
				continue
			}
			pq, err := tpwj.ParseQuery(q)
			if err != nil {
				a.fail("audit: view %s/%s query %q does not parse: %v", name, v, q, err)
				continue
			}
			want, err := tpwj.EvalFuzzy(pq, chosen)
			if err != nil {
				a.fail("audit: view %s/%s local eval failed: %v", name, v, err)
				continue
			}
			compareViewAnswers(a, name, v, vr.Answers, want)
		}
	}
	return nil
}

// compareViewAnswers is the audit-side answer comparison (same rules
// as the workload spot check: count, tree shape, probability).
func compareViewAnswers(a *AuditResult, doc, view string, got []server.Answer, want []tpwj.ProbAnswer) {
	if len(got) != len(want) {
		a.fail("audit: view %s/%s has %d answers, expected %d", doc, view, len(got), len(want))
		return
	}
	for i := range got {
		wantTree := tree.Format(want[i].Tree)
		if got[i].Tree != wantTree {
			a.fail("audit: view %s/%s answer %d tree %q, expected %q", doc, view, i, got[i].Tree, wantTree)
			return
		}
		if diff := got[i].P - want[i].P; diff > 1e-9 || diff < -1e-9 {
			a.fail("audit: view %s/%s answer %d probability %g, expected %g", doc, view, i, got[i].P, want[i].P)
			return
		}
	}
}

// parseExposition reads Prometheus text exposition into a flat map
// keyed by the full sample identity (`name{label="value"}`). Repeated
// keys sum, matching the exposition's own collision rule.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// RouteReport is the client-side measurement for one route: request
// and error counts, throughput, and latency percentiles on the same
// bucket ladder as the server's histograms.
type RouteReport struct {
	Route        string  `json:"route"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	EventsPerSec float64 `json:"events_per_sec"`
	AvgMS        float64 `json:"avg_ms"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
}

// Report is the full run result, the document pxsim -json-out writes.
type Report struct {
	Endpoint        string        `json:"endpoint"`
	Seed            int64         `json:"seed"`
	Tenants         int           `json:"tenants"`
	DocsPerTenant   int           `json:"docs_per_tenant"`
	Workers         int           `json:"workers"`
	Mix             string        `json:"mix"`
	ZipfS           float64       `json:"zipf_s"`
	Rate            float64       `json:"rate,omitempty"`
	Speed           float64       `json:"speed,omitempty"`
	Ops             int64         `json:"ops"`
	Errors          int64         `json:"errors"`
	DurationSeconds float64       `json:"duration_seconds"`
	EventsPerSec    float64       `json:"events_per_sec"`
	Routes          []RouteReport `json:"routes"`
	Audit           *AuditResult  `json:"audit"`
	// Engine holds the server's process-wide px_engine_* counters, read
	// from the /stats metrics map during the audit (after the workload
	// drained, before any report-only traffic) — so the report records
	// what the run actually cost the engine, not zeros.
	Engine map[string]float64 `json:"engine_counters"`
	// Fingerprint digests the expected-state model; two equal-seed
	// fault-free runs report equal fingerprints.
	Fingerprint string `json:"fingerprint"`
}

// Report assembles the run report from the client ledgers, latency
// histograms, and the audit result.
func (r *Runner) Report(audit *AuditResult) *Report {
	dur := r.end.Sub(r.start).Seconds()
	if dur <= 0 {
		dur = 1e-9
	}
	rep := &Report{
		Endpoint:        r.cfg.Endpoint,
		Seed:            r.cfg.Seed,
		Tenants:         r.cfg.Tenants,
		DocsPerTenant:   r.cfg.DocsPerTenant,
		Workers:         r.cfg.Workers,
		Mix:             r.cfg.Mix.String(),
		ZipfS:           r.cfg.ZipfS,
		Rate:            r.cfg.Rate,
		Speed:           r.cfg.Speed,
		Ops:             r.opsDone.Load(),
		DurationSeconds: dur,
		EventsPerSec:    float64(r.opsDone.Load()) / dur,
		Audit:           audit,
		Fingerprint:     r.model.Fingerprint(),
	}
	if r.auditSnap != nil {
		rep.Engine = r.auditSnap.WithPrefix("px_engine_")
	}
	for _, route := range workloadRoutes {
		rs := r.cl.routes[route]
		sent := rs.sent.Load()
		if sent == 0 {
			continue
		}
		snap := rs.hist.Snapshot()
		rep.Errors += rs.errs.Load()
		rep.Routes = append(rep.Routes, RouteReport{
			Route:        route,
			Requests:     sent,
			Errors:       rs.errs.Load(),
			EventsPerSec: float64(sent) / dur,
			AvgMS:        snap.AvgMS,
			P50MS:        snap.P50MS,
			P95MS:        snap.P95MS,
			P99MS:        snap.P99MS,
			MaxMS:        snap.MaxMS,
		})
	}
	return rep
}
