package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/warehouse"
	"repro/internal/xupdate"
)

// QueryRequest is the POST /docs/{name}/query body.
type QueryRequest struct {
	// Query is the query text, in the TPWJ syntax by default:
	// "A(B $x, C(//D=val $y)) where $x = $y".
	Query string `json:"query"`
	// Syntax selects the query language: "tpwj" (default) or "xpath".
	Syntax string `json:"syntax,omitempty"`
	// Mode selects probability computation: "exact" (default) or "mc"
	// for Monte-Carlo estimation.
	Mode string `json:"mode,omitempty"`
	// Samples is the Monte-Carlo sample count (mode "mc" only);
	// defaults to 1000.
	Samples int `json:"samples,omitempty"`
	// Seed makes Monte-Carlo estimation reproducible (mode "mc" only);
	// defaults to 1 so identical requests get identical estimates.
	Seed int64 `json:"seed,omitempty"`
}

// Answer is one query answer: its probability, the answer tree in the
// compact text format, and the condition under which it appears.
type Answer struct {
	P         float64 `json:"p"`
	Tree      string  `json:"tree"`
	Condition string  `json:"condition,omitempty"`
}

// QueryResponse is the POST /docs/{name}/query response body.
type QueryResponse struct {
	Answers []Answer `json:"answers"`
	Count   int      `json:"count"`
	// Cached is never set: answers are evaluated on every request. The
	// key stays on the wire only because benchmark/trace.go still reads
	// it; it goes when that harness is re-anchored (ROADMAP item 1).
	Cached bool `json:"cached"`
	// Trace is the request's span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
	// Explain is the cost breakdown and plan summary, present only when
	// the request asked for it with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// ExplainInfo is the ?explain=1 payload: the request's cost-accounting
// breakdown (the same categories /metrics accumulates process-wide —
// see docs/OBSERVABILITY.md for the catalog) and a plan summary of the
// evaluation that produced the answers.
type ExplainInfo struct {
	Cost obs.CostSnapshot `json:"cost"`
	Plan *ExplainPlan     `json:"plan,omitempty"`
}

// ExplainPlan summarizes how the request was evaluated.
type ExplainPlan struct {
	// Mode is "exact" (Shannon expansion) or "mc" (Monte-Carlo
	// estimation); Reason states why that mode ran.
	Mode   string `json:"mode"`
	Reason string `json:"reason"`
	// Samples is the Monte-Carlo sample count (mode "mc" only).
	Samples int `json:"samples,omitempty"`
	// Answers summarizes each answer's condition (queries and views).
	Answers []AnswerPlan `json:"answers,omitempty"`
	// Candidates / Pruned report the keyword evaluator's working set and
	// how much of it the MinProb bound eliminated (searches only).
	Candidates int `json:"candidates,omitempty"`
	Pruned     int `json:"pruned,omitempty"`
	// Stale marks a view read served from the previous maintained state
	// (view reads only).
	Stale bool `json:"stale,omitempty"`
}

// AnswerPlan summarizes one answer's condition: how many clauses its
// DNF holds, the widest clause, the distinct events involved, and
// whether negation forced a general Boolean formula instead of a DNF.
type AnswerPlan struct {
	DNFClauses int  `json:"dnf_clauses"`
	DNFWidth   int  `json:"dnf_width"`
	Events     int  `json:"events"`
	Formula    bool `json:"formula,omitempty"`
}

// answerPlans summarizes raw evaluator answers for an explain payload.
func answerPlans(answers []tpwj.ProbAnswer) []AnswerPlan {
	out := make([]AnswerPlan, len(answers))
	for i, a := range answers {
		p := AnswerPlan{}
		if a.Cond != nil {
			p.DNFClauses = len(a.Cond)
			for _, c := range a.Cond {
				if len(c) > p.DNFWidth {
					p.DNFWidth = len(c)
				}
			}
			p.Events = len(a.Cond.Events())
		} else if a.Formula != nil {
			p.Formula = true
			p.Events = len(a.Formula.Events())
		}
		out[i] = p
	}
	return out
}

// SearchRequest is the POST /docs/{name}/search body.
type SearchRequest struct {
	// Keywords are the required search terms; each is tokenized
	// (lowercase alphanumeric runs) and all resulting tokens are
	// required.
	Keywords []string `json:"keywords"`
	// Mode selects the answer semantics: "slca" (default) or "elca".
	Mode string `json:"mode,omitempty"`
	// Prob selects probability computation: "exact" (default) or "mc".
	Prob string `json:"prob,omitempty"`
	// Samples is the Monte-Carlo world count (prob "mc" only);
	// defaults to 1000.
	Samples int `json:"samples,omitempty"`
	// Seed makes Monte-Carlo estimation reproducible (prob "mc" only);
	// defaults to 1 so identical requests get identical estimates.
	Seed int64 `json:"seed,omitempty"`
	// MinProb drops answers below the threshold and lets the evaluator
	// prune candidates early using its monotone upper bound.
	MinProb float64 `json:"min_prob,omitempty"`
	// TopK keeps only the K most probable answers when positive.
	TopK int `json:"top_k,omitempty"`
}

// SearchAnswer is one keyword-search answer on the wire.
type SearchAnswer struct {
	P         float64 `json:"p"`
	Pre       int     `json:"pre"`
	Path      string  `json:"path"`
	Label     string  `json:"label"`
	Value     string  `json:"value,omitempty"`
	Witnesses int     `json:"witnesses"`
}

// SearchResponse is the POST /docs/{name}/search response body.
type SearchResponse struct {
	Answers    []SearchAnswer `json:"answers"`
	Count      int            `json:"count"`
	Candidates int            `json:"candidates"`
	Pruned     int            `json:"pruned"`
	// Cached is never set: answers are evaluated on every request. The
	// key stays on the wire only because benchmark/trace.go still reads
	// it; it goes when that harness is re-anchored (ROADMAP item 1).
	Cached bool `json:"cached"`
	// Trace is the request's span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
	// Explain is the cost breakdown and plan summary, present only when
	// the request asked for it with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// TracesResponse is the GET /debug/traces response body: the most
// recent request traces, newest first.
type TracesResponse struct {
	Traces []obs.TraceRecord `json:"traces"`
	Count  int               `json:"count"`
}

// ViewRequest is the PUT /docs/{name}/views/{view} body.
type ViewRequest struct {
	// Query is the view's query text.
	Query string `json:"query"`
	// Syntax selects the query language: "tpwj" (default) or "xpath".
	Syntax string `json:"syntax,omitempty"`
}

// ViewInfo is one registered view in a GET /docs/{name}/views listing.
type ViewInfo struct {
	Name   string `json:"name"`
	Query  string `json:"query"`
	Syntax string `json:"syntax,omitempty"`
}

// ViewListResponse is the GET /docs/{name}/views response body.
type ViewListResponse struct {
	Views []ViewInfo `json:"views"`
}

// ViewResponse is the GET (and PUT) /docs/{name}/views/{view} response
// body: the definition and the incrementally maintained answers.
type ViewResponse struct {
	Name    string   `json:"name"`
	Query   string   `json:"query"`
	Syntax  string   `json:"syntax,omitempty"`
	Answers []Answer `json:"answers"`
	Count   int      `json:"count"`
	// Stale reports that a maintenance pass was in flight when the
	// answers were read: they are the complete result against the
	// document as of the last finished pass, not the mutation being
	// applied. Reads never block on writers.
	Stale bool `json:"stale"`
	// Trace is the request's span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
	// Explain is the cost breakdown and plan summary, present only when
	// the request asked for it with ?explain=1.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// encodeView converts a warehouse view read to its wire form.
func encodeView(res *warehouse.ViewResult) ViewResponse {
	return ViewResponse{
		Name:    res.Name,
		Query:   res.Query,
		Syntax:  res.Syntax,
		Answers: encodeAnswers(res.Answers),
		Count:   len(res.Answers),
		Stale:   res.Stale,
	}
}

// UpdateOp is one elementary operation of a textual update request.
type UpdateOp struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// Var names the query variable the operation targets ("x" or "$x").
	Var string `json:"var"`
	// Tree is the inserted subtree in the compact text format
	// ("B(C:foo)"); insert only.
	Tree string `json:"tree,omitempty"`
}

// UpdateRequest is the POST /docs/{name}/update body. Exactly one of
// the two forms must be used: TxXML carrying an XUpdate-style
// <transaction> document, or the textual form (Query, Confidence, Ops).
type UpdateRequest struct {
	TxXML      string     `json:"tx_xml,omitempty"`
	Query      string     `json:"query,omitempty"`
	Confidence float64    `json:"confidence,omitempty"`
	Ops        []UpdateOp `json:"ops,omitempty"`
}

// UpdateResponse reports what applying the transaction did.
type UpdateResponse struct {
	Valuations      int    `json:"valuations"`
	Inserted        int    `json:"inserted"`
	DeletedOutright int    `json:"deleted_outright"`
	Copies          int    `json:"copies"`
	Event           string `json:"event,omitempty"`
}

// SimplifyResponse reports what simplification removed.
type SimplifyResponse struct {
	NodesRemoved    int `json:"nodes_removed"`
	LiteralsRemoved int `json:"literals_removed"`
	SiblingsMerged  int `json:"siblings_merged"`
	EventsRemoved   int `json:"events_removed"`
}

// DocInfo is the GET /docs/{name}/stat response body and the PUT
// response body.
type DocInfo struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Events int    `json:"events"`
	Worlds int64  `json:"worlds"`
}

// ListResponse is the GET /docs response body.
type ListResponse struct {
	Documents []string `json:"documents"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// toTransaction builds the update transaction from either request form.
func (req *UpdateRequest) toTransaction() (*update.Transaction, error) {
	hasXML := req.TxXML != ""
	hasText := req.Query != "" || len(req.Ops) > 0
	switch {
	case hasXML && hasText:
		return nil, errors.New("use either tx_xml or query/confidence/ops, not both")
	case hasXML:
		return xupdate.ParseTransaction([]byte(req.TxXML))
	case hasText:
		q, err := tpwj.ParseQuery(req.Query)
		if err != nil {
			return nil, err
		}
		ops := make([]update.Op, len(req.Ops))
		for i, op := range req.Ops {
			varName := strings.TrimPrefix(op.Var, "$")
			switch op.Op {
			case "insert":
				sub, err := tree.Parse(op.Tree)
				if err != nil {
					return nil, fmt.Errorf("op %d: %w", i, err)
				}
				ops[i] = update.Insert(varName, sub)
			case "delete":
				ops[i] = update.Delete(varName)
			default:
				return nil, fmt.Errorf("op %d: unknown op %q (want insert or delete)", i, op.Op)
			}
		}
		tx := update.New(q, req.Confidence, ops...)
		if err := tx.Validate(); err != nil {
			return nil, err
		}
		return tx, nil
	default:
		return nil, errors.New("empty update: provide tx_xml or query/confidence/ops")
	}
}

// encodeAnswers converts evaluator answers to their wire form.
func encodeAnswers(answers []tpwj.ProbAnswer) []Answer {
	out := make([]Answer, len(answers))
	for i, a := range answers {
		out[i] = Answer{P: a.P, Tree: tree.Format(a.Tree)}
		switch {
		case a.Cond != nil:
			out[i].Condition = a.Cond.String()
		case a.Formula != nil:
			out[i].Condition = a.Formula.String()
		}
	}
	return out
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone anyway
}

// readJSON decodes the request body into v. Unknown fields are
// rejected, so a typo'd parameter ("minprob" for "min_prob") fails with
// 400 instead of silently running with the default; so is trailing
// content after the JSON value, which would otherwise be ignored.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing content after the request object")
	}
	return nil
}

// encodeSearchAnswers converts evaluator answers to their wire form.
func encodeSearchAnswers(answers []keyword.Answer) []SearchAnswer {
	out := make([]SearchAnswer, len(answers))
	for i, a := range answers {
		out[i] = SearchAnswer{
			P:         a.P,
			Pre:       a.Pre,
			Path:      a.Path,
			Label:     a.Label,
			Value:     a.Value,
			Witnesses: a.Witnesses,
		}
	}
	return out
}
