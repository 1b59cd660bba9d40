package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	fuzzyxml "repro"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xmlio"
	"repro/internal/xpath"
)

// model is the benchmark's own copy of every document, advanced off
// the request path by replaying the acknowledged mutations in order.
type model struct {
	docs []*fuzzyxml.FuzzyTree
}

// apply advances the model by one acknowledged op; reads change
// nothing.
func (m *model) apply(o *op) error {
	switch o.Kind {
	case kindUpdate:
		tx, err := sim.BuildTransaction(o.Update)
		if err != nil {
			return err
		}
		next, _, err := tx.ApplyFuzzy(m.docs[o.Doc])
		if err != nil {
			return err
		}
		m.docs[o.Doc] = next
	case kindSimplify:
		next := m.docs[o.Doc].Clone()
		next.Simplify()
		m.docs[o.Doc] = next
	}
	return nil
}

// replay applies every acknowledged op of a phase. Each client's
// documents are replayed by their own goroutine, in stream order, which
// is each document's own order: a document has one client.
func (m *model) replay(ops []op, res phaseResult) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops) && errs[c] == nil; i += clients {
				if !res.Samples[i].OK {
					continue
				}
				if err := m.apply(&ops[i]); err != nil {
					errs[c] = fmt.Errorf("model: op %d (%s %s): %w", i, ops[i].Method, ops[i].Path, err)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (m *model) hashes() ([][sha256.Size]byte, error) {
	out := make([][sha256.Size]byte, len(m.docs))
	for d, ft := range m.docs {
		data, err := xmlio.DocXML(ft)
		if err != nil {
			return nil, err
		}
		out[d] = sha256.Sum256(data)
	}
	return out, nil
}

// fingerprint folds the document hashes into one hex string: the final
// state of a run, a pure function of the seed.
func fingerprint(hashes [][sha256.Size]byte) string {
	h := sha256.New()
	for _, x := range hashes {
		h.Write(x[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checker counts output checks and mismatches; the first few
// mismatches are kept for the report.
type checker struct {
	Checks     int
	Mismatches int
	Notes      []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.Checks++
	if ok {
		return
	}
	c.Mismatches++
	if len(c.Notes) < 10 {
		c.Notes = append(c.Notes, fmt.Sprintf(format, args...))
	}
}

// checkDocs requires the served XML of every document to hash to the
// model's (minted event ids included).
func (c *checker) checkDocs(cn *conn, want [][sha256.Size]byte) {
	for d := range want {
		status, body, err := cn.do("GET", "/docs/"+docName(d), nil)
		ok := err == nil && status == http.StatusOK && sha256.Sum256(body) == want[d]
		c.check(ok, "document %s: served state differs from the replayed model (status %d, err %v)", docName(d), status, err)
	}
}

// checkQuery is one sampled query of the output check.
type checkQuery struct {
	Doc int
	Req server.QueryRequest
}

// sampleQueries draws n queries for the output check: query ops of the
// stream when it has any, lookups of inserted groups otherwise.
func sampleQueries(seed int64, w *workload, ops []op, n int) []checkQuery {
	r := rand.New(rand.NewSource(seedFor(seed, w.Name+"/checks")))
	var pool []int
	for i := range ops {
		if ops[i].Kind == kindQuery {
			pool = append(pool, i)
		}
	}
	out := make([]checkQuery, 0, n)
	for len(out) < n {
		if len(pool) == 0 {
			out = append(out, checkQuery{Doc: r.Intn(w.Docs), Req: server.QueryRequest{
				Query: fmt.Sprintf("A(S(K=s%d, G(L $l)))", r.Intn(w.Shape.Sections))}})
			continue
		}
		o := &ops[pool[r.Intn(len(pool))]]
		var req server.QueryRequest
		if err := json.Unmarshal(o.Body, &req); err != nil {
			panic(err) // the generator marshalled it
		}
		out = append(out, checkQuery{Doc: o.Doc, Req: req})
	}
	return out
}

// checkQueries re-evaluates sampled queries with tpwj.EvalFuzzy on the
// model's final states: exact answers must agree to 1e-9, Monte-Carlo
// answers must lie within five standard errors of the exact value
// (four would fail one honest run in a few hundred).
func (c *checker) checkQueries(cn *conn, m *model, qs []checkQuery) {
	for _, cq := range qs {
		var q *tpwj.Query
		var err error
		if cq.Req.Syntax == "xpath" {
			q, err = xpath.Compile(cq.Req.Query)
		} else {
			q, err = tpwj.ParseQuery(cq.Req.Query)
		}
		if err != nil {
			c.check(false, "query %q: %v", cq.Req.Query, err)
			continue
		}
		want, err := tpwj.EvalFuzzy(q, m.docs[cq.Doc])
		if err != nil {
			c.check(false, "query %q: %v", cq.Req.Query, err)
			continue
		}
		status, body, err := cn.do("POST", "/docs/"+docName(cq.Doc)+"/query", mustJSON(cq.Req))
		var got server.QueryResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &got)
		}
		if err != nil || status != http.StatusOK {
			c.check(false, "query %q on %s: status %d, err %v", cq.Req.Query, docName(cq.Doc), status, err)
			continue
		}
		c.check(answersAgree(want, got.Answers, cq.Req), "query %q on %s: served answers differ from EvalFuzzy on the model", cq.Req.Query, docName(cq.Doc))
	}
}

func answersAgree(want []tpwj.ProbAnswer, got []server.Answer, req server.QueryRequest) bool {
	exact := make(map[string]float64, len(want))
	for _, a := range want {
		exact[tree.Format(a.Tree)] = a.P
	}
	if req.Mode != "mc" && len(got) != len(want) {
		return false
	}
	for _, a := range got {
		p, ok := exact[a.Tree]
		if !ok {
			return false
		}
		tol := 1e-9
		if req.Mode == "mc" {
			tol = 5*math.Sqrt(p*(1-p)/float64(req.Samples)) + 1e-9
		}
		if math.Abs(a.P-p) > tol {
			return false
		}
	}
	return true
}

// copyDir copies a directory tree byte for byte. It is how the
// recovery check models a process kill: the source warehouse is still
// open and is never closed or flushed first.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close() //nolint:errcheck // already failing; the copy error wins
			return err
		}
		return out.Close()
	})
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// recover_s is the fastest of at least minRecoverReps opens of the
// copy (interference from the sandbox only ever adds time); small
// warehouses, whose opens take milliseconds, are opened until
// recoverBudget (times the run's scale) is spent, at most
// maxRecoverReps times.
const (
	minRecoverReps = 3
	maxRecoverReps = 25
	recoverBudget  = 2500 * time.Millisecond
)

// checkRecovery copies the live warehouse directory, opens the copy
// repeatedly and requires every document to hash to the verified
// model: a missing acknowledged update is a failure, not a slow run.
// The timed part is the open plus listing every document.
func (c *checker) checkRecovery(liveDir, copyTo, backend string, budget time.Duration, want [][sha256.Size]byte) (time.Duration, int, error) {
	if err := copyDir(liveDir, copyTo); err != nil {
		return 0, 0, fmt.Errorf("copy warehouse: %w", err)
	}
	var times []time.Duration
	var spent time.Duration
	for rep := 0; rep < minRecoverReps || (spent < budget && rep < maxRecoverReps); rep++ {
		start := time.Now()
		wh, err := fuzzyxml.OpenWarehouseBackend(copyTo, backend)
		if err != nil {
			return 0, 0, fmt.Errorf("recover copy: %w", err)
		}
		names, err := wh.List()
		times = append(times, time.Since(start))
		spent += times[rep]
		c.check(err == nil && len(names) == len(want), "recovery %d: listed %d documents, want %d (err %v)", rep, len(names), len(want), err)
		for d := 0; d < len(want) && rep < minRecoverReps; d++ {
			data, err := wh.GetXML(docName(d))
			c.check(err == nil && sha256.Sum256(data) == want[d], "recovery %d: document %s differs from the verified model (err %v)", rep, docName(d), err)
		}
		if err := wh.Close(); err != nil {
			return 0, 0, fmt.Errorf("close recovered copy: %w", err)
		}
	}
	return slices.Min(times), len(times), nil
}
