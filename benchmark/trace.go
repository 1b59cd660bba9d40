package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	fuzzyxml "repro"
	"repro/internal/event"
	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/store/filestore"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the span that caused it (0: the op's root, the real
// handler call; probe: a measurement outside the handler's pipeline).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// settle is how long the replay waits between two durable writes it
// issues back to back (the handler's, the shadow's, each probe
// store's). Without it the second fsync queues behind the filesystem
// journal commit the first one started and reads up to twice as slow as
// the same call made alone.
const settle = 2 * time.Millisecond

// probe is the Parent of spans that time a layer call the handler's
// pipeline does not make (the second storage backend, a cloning Get).
const probe = -1

// tracer keeps the spans of one traced replay in memory.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

// time runs fn inside a span and returns the span's id.
func (t *tracer) time(parent int, name string, fn func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	fn()
	t.spans[id-1].End = int64(time.Since(t.t0))
	return id
}

// layerTotals sums span durations by name, the number of spans per
// name, and each name's self time: duration minus the child spans'.
func (t *tracer) layerTotals() (total, self map[string]time.Duration, calls map[string]int) {
	total, self, calls = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		calls[s.Name]++
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	return total, self, calls
}

// routeCost is one route's by-layer cost in a traced replay: the mean
// handler time per op of the route and the layers' mean self times,
// ranked. server.handle's self time is what the by-hand pipeline does
// not cover: the mux, the middleware and the result cache.
type routeCost struct {
	Route    string      `json:"route"`
	Ops      int         `json:"ops"`
	HandleUS float64     `json:"handle_us"`
	Layers   []layerCost `json:"layers"`
}

type layerCost struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
}

// routeCosts attributes the pipeline spans (probes excluded) of the
// replayed ops to their routes.
func (t *tracer) routeCosts(ops []op) []routeCost {
	self := map[string]map[string]time.Duration{}
	count := map[string]int{}
	handle := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op < 0 || s.Parent == probe {
			continue
		}
		kind := ops[s.Op].Kind
		if self[kind] == nil {
			self[kind] = map[string]time.Duration{}
		}
		d := time.Duration(s.End - s.Start)
		self[kind][s.Name] += d
		if s.Parent > 0 {
			self[kind][t.spans[s.Parent-1].Name] -= d
		} else {
			count[kind]++
			handle[kind] += d
		}
	}
	var out []routeCost
	for _, kind := range []string{kindQuery, kindSearch, kindUpdate, kindSimplify, kindViewRead, kindGet} {
		n := count[kind]
		if n == 0 {
			continue
		}
		rc := routeCost{Route: kind, Ops: n, HandleUS: micros(handle[kind]) / float64(n)}
		for name, d := range self[kind] {
			rc.Layers = append(rc.Layers, layerCost{Layer: name, SelfUS: micros(d) / float64(n)})
		}
		sort.Slice(rc.Layers, func(i, j int) bool {
			if rc.Layers[i].SelfUS != rc.Layers[j].SelfUS {
				return rc.Layers[i].SelfUS > rc.Layers[j].SelfUS
			}
			return rc.Layers[i].Layer < rc.Layers[j].Layer
		})
		out = append(out, rc)
	}
	return out
}

// scrape reads the server's /metrics exposition in process and returns
// every sample keyed by its series ("name" or "name{labels}").
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := make(map[string]float64, 256)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counters accumulates /metrics deltas taken around handler calls only,
// so the by-hand layer calls never pollute them.
type counters map[string]float64

func (c counters) add(before, after map[string]float64) {
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			c[k] += d
		}
	}
}

// family sums every series of one metric name, whatever its labels.
func (c counters) family(name string) float64 {
	sum := c[name]
	for k, v := range c {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeStore is a scratch store of one backend that receives the
// replay's journal payloads and document pages.
type probeStore struct {
	name string
	dir  string
	st   store.Store
	log  store.Log
	seq  int64
}

func validRecord(p []byte) bool {
	var r warehouse.Record
	return json.Unmarshal(p, &r) == nil
}

func openProbeStore(name, dir string) (*probeStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ps := &probeStore{name: name, dir: dir}
	ps.st = ps.fresh()
	_, log, err := ps.st.Open(validRecord)
	if err != nil {
		return nil, err
	}
	ps.log = log
	return ps, nil
}

func (ps *probeStore) fresh() store.Store {
	if ps.name == warehouse.BackendKV {
		return kv.New(ps.dir, vfs.OS)
	}
	return filestore.New(ps.dir, vfs.OS)
}

func (ps *probeStore) appendDurable(rec warehouse.Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := ps.log.Append(payload); err != nil {
		return err
	}
	if err := ps.log.Flush(); err != nil {
		return err
	}
	return ps.log.Sync()
}

// install writes what one mutation costs the backend, the way the
// warehouse does: the mutation record and its commit marker, each
// flushed and fsynced, with the document page between them.
func (ps *probeStore) install(tr *tracer, parent int, op warehouse.Op, doc, tx string, data []byte) error {
	var err error
	ps.seq++
	seq := ps.seq
	tr.time(parent, "store."+ps.name+".append", func() {
		err = ps.appendDurable(warehouse.Record{Seq: seq, Op: op, Doc: doc, Tx: tx, Content: string(data)})
	})
	if err != nil {
		return err
	}
	tr.time(parent, "store."+ps.name+".write_doc", func() { err = ps.st.WriteDoc(doc, data, false) })
	if err != nil {
		return err
	}
	ps.seq++
	marker := ps.seq
	tr.time(parent, "store."+ps.name+".append", func() {
		err = ps.appendDurable(warehouse.Record{Seq: marker, Op: warehouse.OpCommit, RefSeq: seq})
	})
	return err
}

// scan closes the store and times a fresh instance's Open: the journal
// scan a recovery pays.
func (ps *probeStore) scan(tr *tracer) error {
	if err := ps.log.Close(); err != nil {
		return err
	}
	if err := ps.st.Close(); err != nil {
		return err
	}
	st := ps.fresh()
	var log store.Log
	var err error
	tr.time(probe, "store."+ps.name+".scan", func() { _, log, err = st.Open(validRecord) })
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	return st.Close()
}

// replica is the state of the traced replay: the served warehouse the
// real handler runs on, a shadow warehouse the by-hand pipeline calls
// the public warehouse entry points on, shadow views, and one scratch
// store per backend.
type replica struct {
	tr     *tracer
	api    *fuzzyxml.Server
	served *fuzzyxml.Warehouse
	shadow *fuzzyxml.Warehouse
	views  [][]*view.View
	probes []*probeStore
	live   string // backend name of the served warehouse
	counts counters
	mem    struct{ alloc, mallocs, gcs, pauseNs uint64 }
	resp   int64
	failed int
	muts   int
	wrote  bool // the previous op ended with a durable write
}

func newReplica(work, backend string, sd *seedData, m *model, tr *tracer) (*replica, error) {
	rp := &replica{tr: tr, counts: counters{}, views: make([][]*view.View, sd.w.Docs)}
	var err error
	if rp.served, err = fuzzyxml.OpenWarehouseBackend(filepath.Join(work, "served"), backend); err != nil {
		return nil, err
	}
	if rp.shadow, err = fuzzyxml.OpenWarehouseBackend(filepath.Join(work, "shadow"), backend); err != nil {
		return nil, err
	}
	rp.live = rp.served.Backend()
	rp.api = fuzzyxml.NewServer(rp.served, fuzzyxml.ServerOptions{})
	for _, b := range []string{warehouse.BackendFile, warehouse.BackendKV} {
		ps, err := openProbeStore(b, filepath.Join(work, "probe-"+b))
		if err != nil {
			return nil, err
		}
		rp.probes = append(rp.probes, ps)
	}
	tr.op = -1 // set-up spans belong to no op
	for d := 0; d < sd.w.Docs; d++ {
		name := docName(d)
		var doc *fuzzyxml.FuzzyTree
		tr.time(probe, "xmlio.parse_doc", func() { doc, err = xmlio.ParseDoc(sd.docXML[d]) })
		if err != nil {
			return nil, err
		}
		for _, wh := range []*fuzzyxml.Warehouse{rp.served, rp.shadow} {
			if err := wh.Create(name, doc); err != nil {
				return nil, err
			}
			for _, v := range sd.w.Views {
				if _, err := wh.RegisterView(name, v.Name, v.Query, ""); err != nil {
					return nil, err
				}
			}
		}
		for _, ps := range rp.probes {
			if err := ps.install(tr, probe, warehouse.OpCreate, name, "", sd.docXML[d]); err != nil {
				return nil, err
			}
		}
		for _, v := range sd.w.Views {
			def := view.Definition{Name: v.Name, Query: v.Query}
			q, err := def.Compile()
			if err != nil {
				return nil, err
			}
			var mv *view.View
			tr.time(probe, "view.materialize", func() { mv, err = view.Materialize(def, q, m.docs[d]) })
			if err != nil {
				return nil, err
			}
			rp.views[d] = append(rp.views[d], mv)
		}
	}
	return rp, nil
}

func (rp *replica) close() error {
	err := rp.served.Close()
	if cerr := rp.shadow.Close(); err == nil {
		err = cerr
	}
	return err
}

// handle times the real handler on the served warehouse, bracketed by
// counter and allocation readings that cover nothing else.
func (rp *replica) handle(o *op) (root int, rec *httptest.ResponseRecorder) {
	var body io.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	req := httptest.NewRequest(o.Method, o.Path, body)
	rec = httptest.NewRecorder()
	if rp.wrote {
		time.Sleep(settle)
		rp.wrote = false
	}
	before := scrape(rp.api)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root = rp.tr.time(0, "server.handle", func() { rp.api.ServeHTTP(rec, req) })
	runtime.ReadMemStats(&m1)
	rp.counts.add(before, scrape(rp.api))
	rp.mem.alloc += m1.TotalAlloc - m0.TotalAlloc
	rp.mem.mallocs += m1.Mallocs - m0.Mallocs
	rp.mem.gcs += uint64(m1.NumGC - m0.NumGC)
	rp.mem.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	rp.resp += int64(rec.Body.Len())
	if rec.Code/100 != 2 {
		rp.failed++
	}
	return root, rec
}

// requestContext is the context the server's middleware hands a
// handler: an obs trace and a cost accumulator, so the by-hand
// warehouse calls pay the same span bookkeeping.
func requestContext(route string) context.Context {
	_, root := obs.NewTrace(route, nil)
	return obs.ContextWithCost(obs.ContextWithSpan(context.Background(), root), obs.NewCost())
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeJSON is the server's response rendering: indented JSON.
func encodeJSON(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func wireAnswers(answers []tpwj.ProbAnswer) []server.Answer {
	out := make([]server.Answer, len(answers))
	for i, a := range answers {
		out[i] = server.Answer{P: a.P, Tree: tree.Format(a.Tree)}
		if a.Cond != nil {
			out[i].Condition = a.Cond.String()
		}
	}
	return out
}

// replay runs one op: the real handler first, then the route's
// pipeline by hand through the layers' public functions on the state
// the handler saw.
func (rp *replica) replay(i int, o *op) error {
	rp.tr.op = i
	var pre *fuzzyxml.FuzzyTree
	var err error
	rp.tr.time(probe, "warehouse.snapshot", func() { pre, err = rp.shadow.Get(docName(o.Doc)) })
	if err != nil {
		return err
	}
	beforeBuilds := keyword.ReadCounters().IndexBuilds
	root, rec := rp.handle(o)
	if rec.Code/100 != 2 {
		return nil
	}
	switch o.Kind {
	case kindQuery:
		return rp.replayQuery(root, o, pre, rec.Body.Bytes())
	case kindSearch:
		return rp.replaySearch(root, o, pre, rec.Body.Bytes(), keyword.ReadCounters().IndexBuilds > beforeBuilds)
	case kindUpdate, kindSimplify:
		rp.muts++
		rp.wrote = true
		return rp.replayMutation(root, o, pre)
	case kindViewRead:
		return rp.replayViewRead(root, o)
	default:
		return rp.replayGet(root, o, pre)
	}
}

func (rp *replica) replayQuery(root int, o *op, ft *fuzzyxml.FuzzyTree, reply []byte) error {
	tr := rp.tr
	var req server.QueryRequest
	var q *tpwj.Query
	var err error
	tr.time(root, "server.decode", func() { err = decodeStrict(o.Body, &req) })
	if err != nil {
		return err
	}
	if req.Syntax == "xpath" {
		tr.time(root, "xpath.compile", func() { q, err = xpath.Compile(req.Query) })
	} else {
		tr.time(root, "tpwj.parse", func() { q, err = tpwj.ParseQuery(req.Query) })
	}
	if err != nil {
		return err
	}
	var served server.QueryResponse
	if err := json.Unmarshal(reply, &served); err != nil {
		return err
	}
	if served.Cached {
		// The handler answered from the result cache: nothing below the
		// server ran.
		tr.time(root, "server.encode", func() { err = encodeJSON(served) })
		return err
	}
	ctx := requestContext(server.RouteQuery)
	var raw []tpwj.ProbAnswer
	wq := tr.time(root, "warehouse.query", func() {
		if req.Mode == "mc" {
			raw, err = rp.shadow.QueryMCCtx(ctx, docName(o.Doc), q, req.Samples, rand.New(rand.NewSource(req.Seed)))
		} else {
			raw, err = rp.shadow.QueryCtx(ctx, docName(o.Doc), q)
		}
	})
	if err != nil {
		return err
	}
	under := ft.Underlying()
	var sym []tpwj.ProbAnswer
	ws := tr.time(wq, "tpwj.symbolic", func() { sym, err = tpwj.EvalFuzzySymbolic(q, ft) })
	if err != nil {
		return err
	}
	tr.time(ws, "fuzzy.validate", func() { err = ft.Validate() })
	if err != nil {
		return err
	}
	tr.time(ws, "tree.index", func() { tree.NewIndex(under) })
	rng := rand.New(rand.NewSource(req.Seed))
	for _, a := range sym {
		var c *event.Compiled
		tr.time(wq, "event.compile", func() { c, err = ft.Table.CompileDNF(a.Cond) })
		if err != nil {
			return err
		}
		if req.Mode == "mc" {
			tr.time(wq, "event.estimate", func() { c.Estimate(req.Samples, rng) })
		} else {
			tr.time(wq, "event.prob", func() { c.Prob() })
		}
	}
	tr.time(root, "server.encode", func() {
		answers := wireAnswers(raw)
		err = encodeJSON(server.QueryResponse{Answers: answers, Count: len(answers)})
	})
	return err
}

func (rp *replica) replaySearch(root int, o *op, ft *fuzzyxml.FuzzyTree, reply []byte, built bool) error {
	tr := rp.tr
	var req server.SearchRequest
	var err error
	tr.time(root, "server.decode", func() { err = decodeStrict(o.Body, &req) })
	if err != nil {
		return err
	}
	var served server.SearchResponse
	if err := json.Unmarshal(reply, &served); err != nil {
		return err
	}
	if served.Cached {
		tr.time(root, "server.encode", func() { err = encodeJSON(served) })
		return err
	}
	mode, err := keyword.ParseMode(req.Mode)
	if err != nil {
		return err
	}
	kreq := keyword.Request{Keywords: req.Keywords, Mode: mode, MinProb: req.MinProb, TopK: req.TopK}
	ctx := requestContext(server.RouteSearch)
	var res *keyword.Result
	ws := tr.time(root, "warehouse.search", func() { res, err = rp.shadow.SearchCtx(ctx, docName(o.Doc), kreq) })
	if err != nil {
		return err
	}
	var ix *keyword.Index
	if built {
		tr.time(ws, "keyword.index_build", func() { ix = keyword.NewIndex(ft) })
	} else {
		ix = keyword.NewIndex(ft)
	}
	tr.time(ws, "keyword.search", func() { _, err = keyword.Search(ix, kreq) })
	if err != nil {
		return err
	}
	tr.time(root, "server.encode", func() {
		out := server.SearchResponse{Count: len(res.Answers), Candidates: res.Candidates, Pruned: res.Pruned,
			Answers: make([]server.SearchAnswer, len(res.Answers))}
		for i, a := range res.Answers {
			out.Answers[i] = server.SearchAnswer{P: a.P, Pre: a.Pre, Path: a.Path, Label: a.Label, Value: a.Value, Witnesses: a.Witnesses}
		}
		err = encodeJSON(out)
	})
	return err
}

// replayMutation re-executes an update or a simplification: the public
// warehouse call on the shadow, then ApplyFuzzy or Simplify, the
// full-state encode, the journal and page writes on both backends, and
// view maintenance, each through its layer's public function.
func (rp *replica) replayMutation(root int, o *op, ft *fuzzyxml.FuzzyTree) error {
	tr := rp.tr
	name := docName(o.Doc)
	var tx *update.Transaction
	var err error
	if o.Kind == kindUpdate {
		var req server.UpdateRequest
		tr.time(root, "server.decode", func() { err = decodeStrict(o.Body, &req) })
		if err != nil {
			return err
		}
		tr.time(root, "tpwj.parse", func() { tx, err = sim.BuildTransaction(o.Update) })
		if err != nil {
			return err
		}
	}
	ctx := requestContext(server.RouteUpdate)
	var ustats *update.FuzzyStats
	time.Sleep(settle)
	wu := tr.time(root, "warehouse.update", func() {
		if tx != nil {
			ustats, err = rp.shadow.UpdateCtx(ctx, name, tx)
		} else {
			_, err = rp.shadow.SimplifyCtx(ctx, name)
		}
	})
	if err != nil {
		return err
	}
	var next *fuzzyxml.FuzzyTree
	var delta *view.Delta
	txNote := "<simplify/>"
	if tx != nil {
		var s *update.FuzzyStats
		tr.time(wu, "update.apply", func() { next, s, err = tx.ApplyFuzzy(ft) })
		if err != nil {
			return err
		}
		delta = &view.Delta{InsertedLabels: s.InsertedLabels, DeleteTargetPaths: s.DeleteTargetPaths}
		note, err := xupdate.TransactionXML(tx)
		if err != nil {
			return err
		}
		txNote = string(note)
	} else {
		tr.time(wu, "fuzzy.simplify", func() {
			next = ft.Clone()
			next.Simplify()
		})
	}
	var data []byte
	tr.time(wu, "xmlio.encode_doc", func() { data, err = xmlio.DocXML(next) })
	if err != nil {
		return err
	}
	for _, ps := range rp.probes {
		parent := probe
		if ps.name == rp.live {
			parent = wu
		}
		time.Sleep(settle)
		if err := ps.install(tr, parent, warehouse.OpUpdate, name, txNote, data); err != nil {
			return err
		}
	}
	for k, v := range rp.views[o.Doc] {
		tr.time(wu, "view.maintain", func() { rp.views[o.Doc][k], _, err = v.Maintain(next, delta) })
		if err != nil {
			return err
		}
	}
	tr.time(root, "server.encode", func() {
		if ustats != nil {
			err = encodeJSON(server.UpdateResponse{Valuations: ustats.Valuations, Inserted: ustats.Inserted,
				DeletedOutright: ustats.DeletedOutright, Copies: ustats.Copies, Event: string(ustats.Event)})
		} else {
			err = encodeJSON(server.SimplifyResponse{})
		}
	})
	return err
}

func (rp *replica) replayViewRead(root int, o *op) error {
	tr := rp.tr
	viewName := o.Path[strings.LastIndexByte(o.Path, '/')+1:]
	var res *fuzzyxml.ViewResult
	var err error
	ctx := requestContext(server.RouteViewGet)
	tr.time(root, "warehouse.view_read", func() { res, err = rp.shadow.ReadViewCtx(ctx, docName(o.Doc), viewName) })
	if err != nil {
		return err
	}
	tr.time(root, "server.encode", func() {
		answers := wireAnswers(res.Answers)
		err = encodeJSON(server.ViewResponse{Name: res.Name, Query: res.Query, Syntax: res.Syntax, Answers: answers, Count: len(answers), Stale: res.Stale})
	})
	return err
}

func (rp *replica) replayGet(root int, o *op, ft *fuzzyxml.FuzzyTree) error {
	tr := rp.tr
	var err error
	ctx := requestContext(server.RouteGet)
	wg := tr.time(root, "warehouse.get_xml", func() { _, err = rp.shadow.GetXMLCtx(ctx, docName(o.Doc)) })
	if err != nil {
		return err
	}
	tr.time(wg, "xmlio.encode_doc", func() { _, err = xmlio.DocXML(ft) })
	return err
}

// perOpLayers are the spans reported as microseconds per replayed op,
// so that on one workload they are shares of server.handle_us.
var perOpLayers = []string{
	"server.handle", "server.decode", "server.encode", "tpwj.parse", "xpath.compile",
	"warehouse.query", "warehouse.update", "fuzzy.validate", "tree.index", "tpwj.symbolic",
	"event.compile", "event.prob", "event.estimate", "keyword.index_build", "keyword.search",
	"update.apply", "fuzzy.simplify", "view.maintain", "xmlio.encode_doc",
}

// perCallLayers are the spans reported as microseconds per call: probes
// outside the handler's pipeline.
var perCallLayers = []string{
	"warehouse.snapshot", "view.materialize", "xmlio.parse_doc",
	"store.filestore.append", "store.kv.append", "store.filestore.write_doc", "store.kv.write_doc",
	"store.filestore.scan", "store.kv.scan",
}

// runTraced measures the per-layer metrics of one workload: a short
// open phase over HTTP for the load generator's own health and the
// per-route latencies, then the single-goroutine traced replay of the
// first K ops on a fresh replica, then the size-scaling probes.
func runTraced(cfg runConfig) (*runRecord, error) {
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
	warmN, _, openN := w.opCounts(cfg.Seconds, cfg.Scale)
	openN = max(2, openN/2/2*2)
	k := max(2, int(float64(w.TraceOps)*min(cfg.Scale, 1)))
	ops := newGenerator(cfg.Seed, w).ops(max(warmN+openN, k))

	rec := &runRecord{Workload: w.Name, Seed: cfg.Seed, Trace: true, Metrics: map[string]metric{}}
	set := func(name string, v float64, unit string, n int) {
		rec.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	}

	// Open phase over HTTP.
	in, lg, warmRes, _, err := setUp(filepath.Join(work, "wh"), cfg.Backend, sd, ops[:warmN])
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec.Backend, rec.Filesystem = in.wh.Backend(), filesystemOf(in.dir)
	openRes := lg.open(ops[warmN:warmN+openN], w.Rate)
	cost, cerr := lg.clientCost(max(20, int(500*min(cfg.Scale, 1))))
	fsync, ferr := fsyncProbe(in.dir, 100)
	lg.close()
	if err := in.stop(); err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	if ferr != nil {
		return nil, ferr
	}
	rec.Attempted = warmN + openN
	rec.Failed = warmRes.failed() + openRes.failed()
	rec.Saturated = routeLatencies(rec.Metrics, w, openRes)
	set("loadgen.client_us_per_op", micros(cost), "us", 0)
	set("store.fsync_probe_us", micros(fsync), "us", 100)

	// Traced replay.
	tr := &tracer{t0: time.Now()}
	rp, err := newReplica(work, cfg.Backend, sd, m, tr)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	defer rp.close() //nolint:errcheck // the run's result is already decided
	diskBefore, err := dirBytes(rp.served.Dir())
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		if err := rp.replay(i, &ops[i]); err != nil {
			return nil, fmt.Errorf("replay op %d (%s %s): %w", i, ops[i].Method, ops[i].Path, err)
		}
	}
	tr.op = -1
	for _, ps := range rp.probes {
		if err := ps.scan(tr); err != nil {
			return nil, err
		}
	}
	rec.Attempted += k
	rec.Failed += rp.failed

	// The handler path and the direct warehouse path saw the same ops:
	// their final states must agree.
	var ck checker
	var liveBytes int64
	for d := 0; d < w.Docs; d++ {
		a, aerr := rp.served.GetXML(docName(d))
		b, berr := rp.shadow.GetXML(docName(d))
		ck.check(aerr == nil && berr == nil && bytes.Equal(a, b), "document %s: served and shadow replicas differ after the replay", docName(d))
		liveBytes += int64(len(a))
	}
	rec.Checks, rec.Mismatches, rec.Notes = ck.Checks, ck.Mismatches, ck.Notes
	diskAfter, err := dirBytes(rp.served.Dir())
	if err != nil {
		return nil, err
	}

	total, self, calls := tr.layerTotals()
	kf := float64(k)
	for _, name := range perOpLayers {
		set(name+"_us", micros(total[name])/kf, "us", calls[name])
	}
	for _, name := range perCallLayers {
		set(name+"_us", ratio(micros(total[name]), float64(calls[name])), "us", calls[name])
	}
	// The handler's self time is what the by-hand top-level spans (the
	// calls the handler itself makes) leave uncovered.
	handle, uncovered := total["server.handle"], self["server.handle"]
	set("server.self_us", micros(uncovered)/kf, "us", k)
	set("warehouse.update_self_us", micros(self["warehouse.update"])/kf, "us", calls["warehouse.update"])
	set("trace.coverage_ratio", ratio(float64(handle-uncovered), float64(handle)), "ratio", k)
	set("server.resp_bytes_per_op", float64(rp.resp)/kf, "B", k)
	set("xmlio.doc_bytes", float64(liveBytes)/float64(w.Docs), "B", w.Docs)

	c := rp.counts
	muts := float64(rp.muts)
	hits, misses := c.family("px_cache_hits_total"), c.family("px_cache_misses_total")
	set("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("tpwj.nodes_visited_per_op", c["px_tpwj_nodes_visited_total"]/kf, "count", 0)
	set("tpwj.matches_per_op", c["px_tpwj_matches_total"]/kf, "count", 0)
	set("event.compiles_per_op", c["px_engine_compiles_total"]/kf, "count", 0)
	set("event.expansion_nodes_per_op", c["px_engine_expansion_nodes_total"]/kf, "count", 0)
	mh, mm := c["px_engine_memo_hits_total"], c["px_engine_memo_misses_total"]
	set("event.memo_hit_ratio", ratio(mh, mh+mm), "ratio", int(mh+mm))
	set("event.mc_samples_per_op", c["px_engine_mc_samples_total"]/kf, "count", 0)
	set("keyword.postings_scanned_per_op", c["px_keyword_postings_scanned_total"]/kf, "count", 0)
	set("keyword.index_builds_per_search", ratio(c["px_keyword_index_builds_total"], c["px_searches_total"]), "ratio", int(c["px_searches_total"]))
	reused, recomputed := c[`px_view_answers_total{outcome="reused"}`], c[`px_view_answers_total{outcome="recomputed"}`]
	set("view.answers_reused_ratio", ratio(reused, reused+recomputed), "ratio", int(reused+recomputed))
	set("store.journal_bytes_per_update", ratio(c["px_journal_bytes_total"], muts), "B", rp.muts)
	set("store.appends_per_update", ratio(c["px_journal_appends_total"], muts), "count", rp.muts)
	set("store.sync_batches_per_update", ratio(c["px_journal_sync_batches_total"], muts), "count", rp.muts)
	set("store.disk_bytes_per_update", ratio(float64(diskAfter-diskBefore), muts), "B", rp.muts)
	set("store.disk_bytes_per_live_byte", ratio(float64(diskAfter), float64(liveBytes)), "ratio", 0)
	set("runtime.alloc_bytes_per_op", float64(rp.mem.alloc)/kf, "B", k)
	set("runtime.allocs_per_op", float64(rp.mem.mallocs)/kf, "count", k)
	set("runtime.gc_cycles", float64(rp.mem.gcs), "count", 0)
	set("runtime.gc_pause_ms", float64(rp.mem.pauseNs)/1e6, "ms", 0)

	for name, v := range scaleProbes(cfg.Scale) {
		set(name, v, "us", 0)
	}
	rec.Routes = tr.routeCosts(ops)
	return rec, writeTrace(cfg, tr)
}

func writeTrace(cfg runConfig, tr *tracer) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.W.Name, cfg.Seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.TraceDir, "trace-"+cfg.W.Name+".json"), data, 0o644)
}
