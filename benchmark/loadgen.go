package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the fixed client count: two goroutines on two keep-alive
// connections, one per core of the reference sandbox. Op i belongs to
// client i mod clients.
const clients = 2

// sample is the outcome of one op.
type sample struct {
	Kind string
	// Latency runs from the scheduled send time (open loop) or the
	// actual send (closed loop) to the last byte of the reply.
	Latency time.Duration
	// Late is how long after its scheduled time the op was sent (open
	// loop only).
	Late time.Duration
	OK   bool
}

// phaseResult is what one closed or open phase measured.
type phaseResult struct {
	Samples []sample
	Wall    time.Duration
	// BacklogMax is the deepest per-connection queue of due but unsent
	// ops (open loop only).
	BacklogMax int
}

func (p *phaseResult) failed() int {
	n := 0
	for _, s := range p.Samples {
		if !s.OK {
			n++
		}
	}
	return n
}

// conn is one client: an http.Client that owns a single keep-alive
// connection.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply, so the connection is
// reused. The returned body is valid until the next call.
func (c *conn) do(method, path string, body []byte) (status int, reply []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) run(o *op) bool {
	status, _, err := c.do(o.Method, o.Path, o.Body)
	return err == nil && status/100 == 2
}

// loadgen drives one server from the fixed set of clients.
type loadgen struct {
	conns [clients]*conn
}

func newLoadgen(base string) *loadgen {
	lg := &loadgen{}
	for i := range lg.conns {
		lg.conns[i] = newConn(base)
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.conns {
		c.close()
	}
}

// closed runs ops closed-loop: each client sends its next op when the
// previous reply has arrived.
func (lg *loadgen) closed(ops []op) phaseResult {
	res := phaseResult{Samples: make([]sample, len(ops))}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				t := time.Now()
				ok := lg.conns[c].run(&ops[i])
				res.Samples[i] = sample{Kind: ops[i].Kind, Latency: time.Since(t), OK: ok}
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// open runs ops open-loop at rate ops/s: op i is due at i/rate after
// the phase starts, on its client's connection. A client that is still
// waiting for a reply sends the next op late, and the op's latency is
// still stamped from the time it was due, so a stall charges every op
// queued behind it.
func (lg *loadgen) open(ops []op, rate float64) phaseResult {
	res := phaseResult{Samples: make([]sample, len(ops))}
	interval := time.Duration(float64(time.Second) / rate)
	backlog := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				late := sent.Sub(due)
				// Ops of this client already due when this one is sent.
				if q := 1 + int(late/(interval*clients)); late > 0 && q > backlog[c] {
					backlog[c] = q
				}
				ok := lg.conns[c].run(&ops[i])
				res.Samples[i] = sample{Kind: ops[i].Kind, Latency: time.Since(due), Late: max(late, 0), OK: ok}
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for _, b := range backlog {
		res.BacklogMax = max(res.BacklogMax, b)
	}
	return res
}

// clientCost measures what the load generator and the HTTP stack cost
// per op with no server work behind them: the mean round trip of n
// requests to the trivial /healthz route on one connection.
func (lg *loadgen) clientCost(n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		status, _, err := lg.conns[0].do("GET", "/healthz", nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("healthz: status %d: %v", status, err)
		}
	}
	return time.Since(start) / time.Duration(n), nil
}
