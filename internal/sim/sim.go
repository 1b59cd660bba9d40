// Package sim is the pxsim traffic generator and self-verifying
// workload harness: it drives a configurable query / search / update /
// view mix for N tenants against a pxserve endpoint, with Zipf
// document popularity, a seeded RNG for full reproducibility, and a
// token-bucket rate controller.
//
// The harness verifies as it measures. Alongside every document it
// maintains a shadow fuzzy tree (the expected state under the same
// transactions), compares update statistics on every write, and
// spot-checks query / search / view answers against local evaluation.
// After the workload drains, an audit reconciles client-side ledgers
// against /stats and /metrics, re-reads every document and view, and
// reports any lost update, wrong view answer, or
// miscounted metric as a discrepancy — a nonzero discrepancy count
// fails the run.
//
// The audit requires the simulator to be the endpoint's only client:
// any out-of-band request lands in the server's counters (and possibly
// documents) without a client-side ledger entry and is reported as a
// discrepancy. That strictness is the point — it is what lets the same
// machinery detect real lost updates.
package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keyword"
	"repro/internal/server"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/xmlio"
)

// Config parameterizes a run. Zero values select the documented
// defaults (see New).
type Config struct {
	// Endpoint is the pxserve base URL, e.g. "http://127.0.0.1:8080".
	Endpoint string
	// Tenants and DocsPerTenant shape the document grid; document
	// names are t<i>-d<j>.
	Tenants       int
	DocsPerTenant int
	// Seed drives every random choice. Two runs with equal Seed and
	// config produce byte-identical workload logs and equal model
	// fingerprints.
	Seed int64
	// Mix weights the operation kinds (DefaultMix when nil).
	Mix Mix
	// ZipfS is the Zipf skew (>1) of document popularity; default 1.2.
	ZipfS float64
	// Ops caps the run length in operations; Duration in wall time.
	// Whichever is hit first ends generation; if both are zero, Ops
	// defaults to 1000.
	Ops      int64
	Duration time.Duration
	// Rate is the target operations/second before Speed scales it;
	// 0 means unthrottled. Speed is the rate multiplier (default 1);
	// Burst the token bucket depth (default 2×workers).
	Rate  float64
	Speed float64
	Burst int
	// Workers is the number of executor goroutines; documents are
	// partitioned to workers (doc index mod Workers) so per-document
	// operation order is deterministic. Default 4.
	Workers int
	// Sections and Events shape each initial document. Defaults 4, 4.
	Sections int
	Events   int
	// CheckEvery spot-checks operations whose sequence number is a
	// multiple of it against local evaluation (0 disables spot checks;
	// update statistics are always checked).
	CheckEvery int64
	// LogW, when set, receives the workload log: one line per
	// generated op, written at generation time so it carries no timing
	// and is byte-identical across equal-seed runs.
	LogW io.Writer
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// HTTPClient overrides the transport (tests pass a client wired to
	// an httptest server or directly to a handler).
	HTTPClient *http.Client
}

// maxDiscrepancyMessages caps how many discrepancy details are kept;
// the count is always exact.
const maxDiscrepancyMessages = 64

// Runner executes one simulation. Create with New, then either call
// Run, or Setup / RunWorkload / Audit separately (tests use the split
// to inject faults between phases).
type Runner struct {
	cfg   Config
	cl    *client
	model *Model
	gen   *generator
	docs  []string
	docIx map[string]int

	start, end time.Time
	opsDone    atomic.Int64

	discMu    sync.Mutex
	discList  []string
	discCount int64

	// auditSnap is the /stats snapshot Audit took after the workload
	// drained; Report reads the engine counters from it.
	auditSnap *server.StatsSnapshot

	fatalMu  sync.Mutex
	fatalErr error
}

// New validates the config, applies defaults, and builds the runner
// (no network traffic yet).
func New(cfg Config) (*Runner, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("sim: empty endpoint")
	}
	if _, err := url.Parse(cfg.Endpoint); err != nil {
		return nil, fmt.Errorf("sim: bad endpoint: %w", err)
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	if cfg.DocsPerTenant <= 0 {
		cfg.DocsPerTenant = 2
	}
	if cfg.Mix == nil {
		cfg.Mix = DefaultMix()
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("sim: zipf skew %g must be > 1", cfg.ZipfS)
	}
	if cfg.Ops == 0 && cfg.Duration == 0 {
		cfg.Ops = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Sections <= 0 {
		cfg.Sections = 4
	}
	if cfg.Events <= 0 {
		cfg.Events = 4
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if cfg.Speed < 0 || cfg.Rate < 0 {
		return nil, fmt.Errorf("sim: negative rate or speed")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.Workers
	}

	docs := docNames(cfg.Tenants, cfg.DocsPerTenant)
	r := &Runner{
		cfg:   cfg,
		cl:    newClient(cfg.Endpoint, cfg.HTTPClient, newTokenBucket(cfg.Rate*cfg.Speed, cfg.Burst)),
		model: newModel(),
		gen:   newGenerator(cfg.Seed, docs, cfg.Mix, cfg.ZipfS, cfg.Sections),
		docs:  docs,
		docIx: make(map[string]int, len(docs)),
	}
	for i, d := range docs {
		r.docIx[d] = i
	}
	return r, nil
}

// Model exposes the expected-state model (tests fingerprint it).
// Only valid to call when no workload is in flight.
func (r *Runner) Model() *Model { return r.model }

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// discrepancy records one verification failure. The count is exact;
// message details are capped.
func (r *Runner) discrepancy(format string, args ...any) {
	r.discMu.Lock()
	r.discCount++
	if len(r.discList) < maxDiscrepancyMessages {
		r.discList = append(r.discList, fmt.Sprintf(format, args...))
	}
	r.discMu.Unlock()
}

// fatal records a run-aborting error (transport failures: once the
// connection breaks, request/response pairing — and with it count
// reconciliation — is lost). First error wins.
func (r *Runner) fatal(err error) {
	r.fatalMu.Lock()
	if r.fatalErr == nil {
		r.fatalErr = err
	}
	r.fatalMu.Unlock()
}

func (r *Runner) fatalled() error {
	r.fatalMu.Lock()
	defer r.fatalMu.Unlock()
	return r.fatalErr
}

// Setup creates every document (counted PUTs through the workload
// ledger) and seeds the shadow model with identical parses of the
// same XML.
func (r *Runner) Setup() error {
	for i, name := range r.docs {
		xml := initialDocXML(r.cfg.Seed, i, r.cfg.Sections, r.cfg.Events)
		status, body, err := r.cl.do(server.RouteCreate, http.MethodPut, "/docs/"+name, []byte(xml))
		if err != nil {
			return fmt.Errorf("sim: create %s: %w", name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("sim: create %s: status %d: %s", name, status, errorBody(body))
		}
		ft, err := xmlio.ParseDoc([]byte(xml))
		if err != nil {
			return fmt.Errorf("sim: shadow parse %s: %w", name, err)
		}
		r.model.add(newDocModel(name, ft))
	}
	r.logf("created %d documents (%d tenants × %d)", len(r.docs), r.cfg.Tenants, r.cfg.DocsPerTenant)
	return nil
}

// RunWorkload generates the op stream and executes it: the generator
// emits ops in sequence order (writing the workload log as it goes)
// and dispatches each to the worker owning its document, so
// per-document order is exactly generation order.
func (r *Runner) RunWorkload(ctx context.Context) error {
	w := r.cfg.Workers
	chans := make([]chan Op, w)
	for i := range chans {
		chans[i] = make(chan Op, 128)
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		ch := chans[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ch {
				if r.fatalled() != nil {
					continue // drain without executing
				}
				r.execute(op)
			}
		}()
	}

	r.start = time.Now()
	var deadline time.Time
	if r.cfg.Duration > 0 {
		deadline = r.start.Add(r.cfg.Duration)
	}
	for n := int64(0); r.cfg.Ops == 0 || n < r.cfg.Ops; n++ {
		if ctx.Err() != nil || r.fatalled() != nil {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		op := r.gen.next()
		if r.cfg.LogW != nil {
			fmt.Fprintln(r.cfg.LogW, op.logLine()) //nolint:errcheck
		}
		chans[r.docIx[op.Doc]%w] <- op
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	r.end = time.Now()
	if err := r.fatalled(); err != nil {
		return err
	}
	r.logf("workload drained: %d ops in %.2fs", r.opsDone.Load(), r.end.Sub(r.start).Seconds())
	return ctx.Err()
}

// execute runs one op and its oracles. It is the only writer of the
// op's docModel (worker partitioning), so shadow state needs no lock.
func (r *Runner) execute(op Op) {
	d := r.model.docs[op.Doc]
	d.counts[op.Kind]++
	r.opsDone.Add(1)
	check := r.cfg.CheckEvery > 0 && op.Seq%r.cfg.CheckEvery == 0

	switch op.Kind {
	case OpRead:
		r.execRead(op, d)
	case OpQuery:
		r.execQuery(op, d, check)
	case OpSearch:
		r.execSearch(op, d, check)
	case OpUpdate:
		r.execUpdate(op, d)
	case OpViewRead:
		r.execViewRead(op, d, check)
	case OpRegisterView:
		r.execRegisterView(op, d)
	}
}

// execRead fetches the document XML and compares its hash against the
// shadow — the continuous lost-update detector.
func (r *Runner) execRead(op Op, d *docModel) {
	status, body, err := r.cl.do(server.RouteGet, http.MethodGet, "/docs/"+op.Doc, nil)
	if err != nil {
		r.fatal(fmt.Errorf("sim: read %s: %w", op.Doc, err))
		return
	}
	if status != http.StatusOK {
		if status < http.StatusInternalServerError {
			r.discrepancy("op %d: read %s: unexpected status %d: %s", op.Seq, op.Doc, status, errorBody(body))
		}
		return
	}
	sum := sha256.Sum256(body)
	if _, _, ok := d.resolve(hex.EncodeToString(sum[:])); !ok {
		r.discrepancy("op %d: read %s: content hash %s matches neither expected state (lost or phantom update)",
			op.Seq, op.Doc, hex.EncodeToString(sum[:])[:12])
	}
}

// execQuery posts the query; on spot-check ops the response is
// compared against local evaluation over the shadow tree.
func (r *Runner) execQuery(op Op, d *docModel, check bool) {
	status, body, err := r.cl.do(server.RouteQuery, http.MethodPost,
		"/docs/"+op.Doc+"/query", server.QueryRequest{Query: op.Query})
	if err != nil {
		r.fatal(fmt.Errorf("sim: query %s: %w", op.Doc, err))
		return
	}
	if status != http.StatusOK {
		if status < http.StatusInternalServerError {
			r.discrepancy("op %d: query %s %q: unexpected status %d: %s",
				op.Seq, op.Doc, op.Query, status, errorBody(body))
		}
		return
	}
	if !check || d.alt != nil {
		return // ambiguous shadow state: skip answer comparison
	}
	var resp server.QueryResponse
	if err := decode(body, &resp); err != nil {
		r.discrepancy("op %d: query %s: undecodable response: %v", op.Seq, op.Doc, err)
		return
	}
	q, err := tpwj.ParseQuery(op.Query)
	if err != nil {
		r.discrepancy("op %d: generated query %q does not parse: %v", op.Seq, op.Query, err)
		return
	}
	want, err := tpwj.EvalFuzzy(q, d.tree)
	if err != nil {
		r.discrepancy("op %d: local eval of %q failed: %v", op.Seq, op.Query, err)
		return
	}
	r.compareAnswers(op.Seq, op.Doc, "query "+op.Query, resp.Answers, want)
}

// compareAnswers checks count, tree shape, and probability (1e-9
// tolerance) of served answers against locally computed ones. The
// condition string is not compared: DNF literal order is
// representation, not meaning.
func (r *Runner) compareAnswers(seq int64, doc, what string, got []server.Answer, want []tpwj.ProbAnswer) {
	if len(got) != len(want) {
		r.discrepancy("op %d: %s on %s: %d answers served, %d expected", seq, what, doc, len(got), len(want))
		return
	}
	for i := range got {
		wantTree := tree.Format(want[i].Tree)
		if got[i].Tree != wantTree {
			r.discrepancy("op %d: %s on %s: answer %d tree %q, expected %q",
				seq, what, doc, i, got[i].Tree, wantTree)
			return
		}
		if math.Abs(got[i].P-want[i].P) > 1e-9 {
			r.discrepancy("op %d: %s on %s: answer %d probability %g, expected %g",
				seq, what, doc, i, got[i].P, want[i].P)
			return
		}
	}
}

// execSearch posts the keyword search; spot-check ops rebuild a local
// index over the shadow tree and compare.
func (r *Runner) execSearch(op Op, d *docModel, check bool) {
	status, body, err := r.cl.do(server.RouteSearch, http.MethodPost,
		"/docs/"+op.Doc+"/search", server.SearchRequest{Keywords: op.Keywords, Mode: op.SearchMode})
	if err != nil {
		r.fatal(fmt.Errorf("sim: search %s: %w", op.Doc, err))
		return
	}
	if status != http.StatusOK {
		if status < http.StatusInternalServerError {
			r.discrepancy("op %d: search %s %v: unexpected status %d: %s",
				op.Seq, op.Doc, op.Keywords, status, errorBody(body))
		}
		return
	}
	if !check || d.alt != nil {
		return
	}
	var resp server.SearchResponse
	if err := decode(body, &resp); err != nil {
		r.discrepancy("op %d: search %s: undecodable response: %v", op.Seq, op.Doc, err)
		return
	}
	mode, err := keyword.ParseMode(op.SearchMode)
	if err != nil {
		r.discrepancy("op %d: generated search mode %q invalid: %v", op.Seq, op.SearchMode, err)
		return
	}
	res, err := keyword.Search(keyword.NewIndex(d.tree), keyword.Request{Keywords: op.Keywords, Mode: mode})
	if err != nil {
		r.discrepancy("op %d: local search %v failed: %v", op.Seq, op.Keywords, err)
		return
	}
	if len(resp.Answers) != len(res.Answers) {
		r.discrepancy("op %d: search %v on %s: %d answers served, %d expected",
			op.Seq, op.Keywords, op.Doc, len(resp.Answers), len(res.Answers))
		return
	}
	for i, a := range res.Answers {
		g := resp.Answers[i]
		if g.Path != a.Path || g.Label != a.Label || g.Value != a.Value {
			r.discrepancy("op %d: search %v on %s: answer %d is %s (%s=%s), expected %s (%s=%s)",
				op.Seq, op.Keywords, op.Doc, i, g.Path, g.Label, g.Value, a.Path, a.Label, a.Value)
			return
		}
		if math.Abs(g.P-a.P) > 1e-9 {
			r.discrepancy("op %d: search %v on %s: answer %d probability %g, expected %g",
				op.Seq, op.Keywords, op.Doc, i, g.P, a.P)
			return
		}
	}
}

// execUpdate posts the transaction and, on success, applies the same
// transaction to the shadow and compares the server's statistics —
// every acknowledged write is verified, not just spot-checked. On
// failure the shadow records the ambiguity (see noteWriteFailure).
func (r *Runner) execUpdate(op Op, d *docModel) {
	u := op.Update
	reqOps := []server.UpdateOp{}
	if u.Insert != "" {
		reqOps = append(reqOps, server.UpdateOp{Op: "insert", Var: u.Var, Tree: u.Insert})
	} else {
		reqOps = append(reqOps, server.UpdateOp{Op: "delete", Var: u.Var})
	}
	status, body, err := r.cl.do(server.RouteUpdate, http.MethodPost,
		"/docs/"+op.Doc+"/update",
		server.UpdateRequest{Query: u.Query, Confidence: u.Confidence, Ops: reqOps})
	if err != nil {
		r.fatal(fmt.Errorf("sim: update %s: %w", op.Doc, err))
		return
	}

	tx, txErr := buildTransaction(u)
	if txErr != nil {
		r.discrepancy("op %d: generated update does not build locally: %v", op.Seq, txErr)
		return
	}

	if status != http.StatusOK {
		if status < http.StatusInternalServerError {
			// 4xx: the server refused the transaction upfront — nothing
			// applied, but a generated op should never be invalid.
			r.discrepancy("op %d: update %s: rejected with %d: %s", op.Seq, op.Doc, status, errorBody(body))
			d.noteWriteFailure(tx, op.Seq, true)
			return
		}
		d.noteWriteFailure(tx, op.Seq, isUpfrontRejection(status, body))
		return
	}

	var resp server.UpdateResponse
	if err := decode(body, &resp); err != nil {
		r.discrepancy("op %d: update %s: undecodable response: %v", op.Seq, op.Doc, err)
		return
	}
	stats, err := d.applyUpdate(tx)
	if err != nil {
		r.discrepancy("op %d: update %s: shadow apply failed: %v (server acknowledged)", op.Seq, op.Doc, err)
		return
	}
	if resp.Valuations != stats.Valuations || resp.Inserted != stats.Inserted ||
		resp.DeletedOutright != stats.DeletedOutright || resp.Copies != stats.Copies ||
		resp.Event != string(stats.Event) {
		r.discrepancy("op %d: update %s: server stats {val=%d ins=%d del=%d cp=%d ev=%q}, expected {val=%d ins=%d del=%d cp=%d ev=%q}",
			op.Seq, op.Doc,
			resp.Valuations, resp.Inserted, resp.DeletedOutright, resp.Copies, resp.Event,
			stats.Valuations, stats.Inserted, stats.DeletedOutright, stats.Copies, string(stats.Event))
	}
}

// buildTransaction constructs the local twin of the wire update.
func buildTransaction(u *UpdateSpec) (*update.Transaction, error) {
	q, err := tpwj.ParseQuery(u.Query)
	if err != nil {
		return nil, err
	}
	var op update.Op
	if u.Insert != "" {
		sub, err := tree.Parse(u.Insert)
		if err != nil {
			return nil, err
		}
		op = update.Insert(u.Var, sub)
	} else {
		op = update.Delete(u.Var)
	}
	tx := update.New(q, u.Confidence, op)
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	return tx, nil
}

// execViewRead reads a registered view. The response on a spot-check
// op must match local evaluation exactly: a view read answers for the
// document's current version, and this worker is the only writer of
// this document.
func (r *Runner) execViewRead(op Op, d *docModel, check bool) {
	status, body, err := r.cl.do(server.RouteViewGet, http.MethodGet,
		"/docs/"+op.Doc+"/views/"+op.ViewName, nil)
	if err != nil {
		r.fatal(fmt.Errorf("sim: view read %s/%s: %w", op.Doc, op.ViewName, err))
		return
	}
	if status == http.StatusNotFound {
		if _, maybe := d.maybeViews[op.ViewName]; maybe {
			// The lost registration turned out not-applied; stop
			// expecting it to maybe exist.
			delete(d.maybeViews, op.ViewName)
			return
		}
		if _, confirmed := d.views[op.ViewName]; confirmed {
			r.discrepancy("op %d: view %s/%s acknowledged registered but reads 404",
				op.Seq, op.Doc, op.ViewName)
		}
		return
	}
	if status != http.StatusOK {
		if status < http.StatusInternalServerError {
			r.discrepancy("op %d: view read %s/%s: unexpected status %d: %s",
				op.Seq, op.Doc, op.ViewName, status, errorBody(body))
		}
		return
	}
	if _, maybe := d.maybeViews[op.ViewName]; maybe {
		// A successful read proves the lost registration was applied.
		d.views[op.ViewName] = d.maybeViews[op.ViewName]
		delete(d.maybeViews, op.ViewName)
	}
	var resp server.ViewResponse
	if err := decode(body, &resp); err != nil {
		r.discrepancy("op %d: view read %s/%s: undecodable response: %v", op.Seq, op.Doc, op.ViewName, err)
		return
	}
	if !check || d.alt != nil {
		return
	}
	q, err := tpwj.ParseQuery(op.Query)
	if err != nil {
		r.discrepancy("op %d: view query %q does not parse: %v", op.Seq, op.Query, err)
		return
	}
	want, err := tpwj.EvalFuzzy(q, d.tree)
	if err != nil {
		r.discrepancy("op %d: local view eval %q failed: %v", op.Seq, op.Query, err)
		return
	}
	r.compareAnswers(op.Seq, op.Doc, "view "+op.ViewName, resp.Answers, want)
}

// execRegisterView registers a view and records the outcome in the
// shadow view registry.
func (r *Runner) execRegisterView(op Op, d *docModel) {
	status, body, err := r.cl.do(server.RouteViewPut, http.MethodPut,
		"/docs/"+op.Doc+"/views/"+op.ViewName, server.ViewRequest{Query: op.Query})
	if err != nil {
		r.fatal(fmt.Errorf("sim: register view %s/%s: %w", op.Doc, op.ViewName, err))
		return
	}
	switch {
	case status == http.StatusCreated:
		d.noteRegister(op.ViewName, op.Query, true, false)
	case status < http.StatusInternalServerError:
		r.discrepancy("op %d: register view %s/%s: rejected with %d: %s",
			op.Seq, op.Doc, op.ViewName, status, errorBody(body))
		d.noteRegister(op.ViewName, op.Query, false, true)
	default:
		d.noteRegister(op.ViewName, op.Query, false, isUpfrontRejection(status, body))
	}
}

// Run executes the full sequence: Setup, RunWorkload, Audit, Report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Setup(); err != nil {
		return nil, err
	}
	if err := r.RunWorkload(ctx); err != nil {
		return nil, err
	}
	audit, err := r.Audit()
	if err != nil {
		return nil, err
	}
	return r.Report(audit), nil
}
