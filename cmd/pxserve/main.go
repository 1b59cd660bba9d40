// Command pxserve serves a probabilistic XML warehouse over HTTP: the
// multi-client front end of the paper's warehouse architecture. Many
// clients can create, query and update documents concurrently;
// operations on different documents never contend. Every query is
// evaluated on the document's current version; a query asked
// repeatedly belongs in a materialized view (PUT /docs/{name}/views/{view}).
//
// Usage:
//
//	pxserve -dir ./wh
//	pxserve -dir ./wh -store kv
//	pxserve -dir ./wh -addr :9090 -v
//	pxserve -dir ./wh -slow-query 250ms -pprof localhost:6060
//	pxserve -dir ./wh -pprof localhost:6060 -mutexprofile 5 -blockprofile 1000000
//	pxserve -dir ./wh -request-timeout 5s -max-inflight 64
//	pxserve -dir ./wh -request-timeout 0
//
// A request's evaluation is cut off with a 503 after 30 seconds unless
// -request-timeout says otherwise (0 turns the bound off).
//
// On SIGINT/SIGTERM the server drains in-flight requests (up to 10s)
// and logs the final /stats payload (every metric series, the storage
// footprint and the degraded state) before exiting. -slow-query logs
// every request over the threshold with its span breakdown; -pprof
// serves net/http/pprof and GET /debug/traces on a separate debug
// address (keep it off public interfaces — neither is reachable
// through the main listener). See the package documentation of repro/internal/server
// for the route list, docs/OBSERVABILITY.md for the metrics and
// tracing guide, and the repository README for curl examples.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	fuzzyxml "repro"
)

func main() {
	var (
		dir         = flag.String("dir", "", "warehouse directory (required)")
		storeName   = flag.String("store", "auto", "storage backend: filestore, kv, or auto (detect from the directory)")
		addr        = flag.String("addr", ":8080", "listen address")
		verbose     = flag.Bool("v", false, "log every request")
		slowQuery   = flag.Duration("slow-query", 0, "log requests at least this slow, with span breakdown (0 = disabled)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and /debug/traces on this debug address (empty = disabled)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "abort request evaluation after this long with 503 (0 = no timeout; /stats, /metrics and probes are exempt)")
		maxInFlight = flag.Int("max-inflight", 0, "cap on concurrently evaluating requests, excess shed with 429 (0 = unlimited)")
		mutexFrac   = flag.Int("mutexprofile", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 = off; needs -pprof)")
		blockRate   = flag.Int("blockprofile", 0, "sample blocking events of at least n ns for /debug/pprof/block (0 = off; needs -pprof)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	wh, err := fuzzyxml.OpenWarehouseBackend(*dir, *storeName)
	if err != nil {
		log.Fatalf("pxserve: %v", err)
	}
	defer wh.Close()
	log.Printf("pxserve: %s storage backend at %s", wh.Backend(), wh.Dir())
	log.Printf("pxserve: request timeout %v, max in-flight %d", *reqTimeout, *maxInFlight)

	opts := fuzzyxml.ServerOptions{
		SlowQueryThreshold: *slowQuery,
		RequestTimeout:     *reqTimeout,
		MaxInFlight:        *maxInFlight,
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	api := fuzzyxml.NewServer(wh, opts)
	srv := &http.Server{
		Addr:    *addr,
		Handler: api,
	}

	// Contention profiling is opt-in: both profiles are free when their
	// rate is zero but add bookkeeping to every mutex unlock / blocking
	// event once enabled, so the flags default to off. The profiles are
	// served by the pprof index on the debug mux below.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if *pprofAddr != "" {
		// The debug mux gets its own address so profiling endpoints and
		// recent request traces (paths, timings, span breakdowns) are
		// never reachable through the public listener.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/traces", api.TracesHandler())
		go func() {
			log.Printf("pxserve: debug listener (pprof, traces) on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pxserve: pprof: %v", err)
			}
		}()
	}

	// Graceful shutdown: on the first SIGINT/SIGTERM stop accepting
	// connections and drain in-flight requests for up to 10 seconds.
	// ListenAndServe returns as soon as Shutdown starts, so main waits
	// on done for the drain to finish before closing the warehouse.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("pxserve: shutting down, draining requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("pxserve: shutdown: %v", err)
		}
	}()

	// Listen before announcing so the printed address is the one
	// actually bound — with "-addr :0" (tests, parallel CI jobs) the
	// kernel-assigned port is what clients need to see.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pxserve: %v", err)
	}
	fmt.Printf("pxserve: warehouse %s listening on %s\n", wh.Dir(), ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("pxserve: %v", err)
	}
	<-done

	// Final stats summary: the full /stats payload, so a terminated
	// server leaves its counters in the log.
	if summary, err := json.Marshal(api.Snapshot()); err == nil {
		log.Printf("pxserve: final stats: %s", summary)
	}
	log.Printf("pxserve: shutdown complete")
}
