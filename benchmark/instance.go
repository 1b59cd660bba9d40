package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	fuzzyxml "repro"
	"repro/internal/xmlio"
)

// instance is one served warehouse: pxserve's defaults (256-entry
// cache, no timeout, no in-flight cap) on a loopback listener in this
// process.
type instance struct {
	dir  string
	wh   *fuzzyxml.Warehouse
	api  *fuzzyxml.Server
	srv  *http.Server
	base string
	done chan error
}

func startInstance(dir, backend string) (*instance, error) {
	wh, err := fuzzyxml.OpenWarehouseBackend(dir, backend)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wh.Close() //nolint:errcheck // already failing; the listen error wins
		return nil, err
	}
	in := &instance{dir: dir, wh: wh, api: fuzzyxml.NewServer(wh, fuzzyxml.ServerOptions{}), done: make(chan error, 1)}
	in.srv = &http.Server{Handler: in.api}
	in.base = "http://" + ln.Addr().String()
	go func() { in.done <- in.srv.Serve(ln) }()
	return in, nil
}

// stop shuts the listener down, waits for the serve goroutine and
// closes the warehouse.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := in.wh.Close(); err == nil {
		err = cerr
	}
	return err
}

// seedData is what every set-up of one run loads: the documents and
// their PUT bodies, generated once before any timing.
type seedData struct {
	w      *workload
	docXML [][]byte
}

func newSeedData(seed int64, w *workload) (*seedData, *model, error) {
	sd := &seedData{w: w, docXML: make([][]byte, w.Docs)}
	m := &model{docs: make([]*fuzzyxml.FuzzyTree, w.Docs)}
	for d := 0; d < w.Docs; d++ {
		m.docs[d] = buildDoc(seed, w, d)
		data, err := xmlio.DocXML(m.docs[d])
		if err != nil {
			return nil, nil, fmt.Errorf("encode %s: %w", docName(d), err)
		}
		sd.docXML[d] = data
	}
	return sd, m, nil
}

// load PUTs the documents and registers the views through the two
// clients, each loading its own partition.
func (sd *seedData) load(lg *loadgen) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = sd.loadPartition(lg.conns[c], c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (sd *seedData) loadPartition(c *conn, client int) error {
	for d := client; d < sd.w.Docs; d += clients {
		status, reply, err := c.do("PUT", "/docs/"+docName(d), sd.docXML[d])
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("PUT %s: status %d: %s: %v", docName(d), status, reply, err)
		}
		for _, v := range sd.w.Views {
			body := mustJSON(map[string]string{"query": v.Query})
			status, reply, err := c.do("PUT", "/docs/"+docName(d)+"/views/"+v.Name, body)
			if err != nil || status != http.StatusCreated {
				return fmt.Errorf("PUT view %s/%s: status %d: %s: %v", docName(d), v.Name, status, reply, err)
			}
		}
	}
	return nil
}

// setUp is phase 1: a warehouse in a fresh directory, the documents and
// views loaded over HTTP, and the warm-up prefix of the op stream
// issued closed-loop.
func setUp(dir, backend string, sd *seedData, warm []op) (*instance, *loadgen, phaseResult, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, phaseResult{}, 0, err
	}
	in, err := startInstance(dir, backend)
	if err != nil {
		return nil, nil, phaseResult{}, 0, err
	}
	lg := newLoadgen(in.base)
	if err := sd.load(lg); err != nil {
		lg.close()
		in.stop() //nolint:errcheck // already failing; the load error wins
		return nil, nil, phaseResult{}, 0, err
	}
	res := lg.closed(warm)
	return in, lg, res, time.Since(start), nil
}
