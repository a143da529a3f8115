// Command gdsxd is the long-lived transform-and-run service: it
// accepts {source, input, options} requests over HTTP, runs the full
// parse→sema→expand→execute pipeline with per-request isolation and
// quotas, and degrades gracefully under load. See DESIGN.md §7.
//
// Endpoints:
//
//	POST /run               {"source": "...", "input": "...", "options": {...}}
//	GET  /healthz           process liveness (200 while the process runs)
//	GET  /readyz            traffic readiness (503 once draining)
//	GET  /stats             service counters as JSON
//	GET  /metrics           Prometheus text exposition of the service registry
//	GET  /debug/traces      retained request traces (slowest + recent errors) as JSON index
//	GET  /debug/traces/{id} one retained trace as Chrome trace-event JSON
//
// Every /run request is traced. Its response carries an X-Request-ID
// header (the inbound one when the client sent a well-formed
// X-Request-ID, generated otherwise) that names the trace, so a
// retained trace is retrievable from /debug/traces/{id} afterwards.
//
// SIGTERM or SIGINT starts a graceful drain: in-flight requests
// finish, new ones get 503 draining, and the process exits 0 once the
// listener is down.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gdsx/internal/serve"
	"gdsx/internal/serve/chaos"
)

func main() {
	var (
		addr     = flag.String("addr", ":8745", "listen address")
		maxConc  = flag.Int("max-concurrent", 0, "execution slots (0 = NumCPU, capped at 8)")
		queue    = flag.Int("queue", 0, "admission queue depth beyond the execution slots (0 = 32)")
		cacheN   = flag.Int("cache", 0, "transform cache entries (0 = 128)")
		rps      = flag.Float64("rps", 0, "per-tenant requests/sec (0 = 50, negative = unlimited)")
		burst    = flag.Float64("burst", 0, "per-tenant burst (0 = 2x rps)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		chaosOn  = flag.Bool("chaos", false, "mount the fault-injecting chaos middleware (testing only)")
		chaosPan = flag.Int("chaos-panic-every", 10, "with -chaos: panic on one in N requests")
		logDest  = flag.String("log", "", "structured request log destination: a file path, or - for stdout (empty = off)")
		retainN  = flag.Int("trace-retain", 0, "retained traces per pool on /debug/traces (0 = 32)")
	)
	flag.Parse()

	var reqLog io.Writer
	if *logDest == "-" {
		reqLog = os.Stdout
	} else if *logDest != "" {
		f, err := os.OpenFile(*logDest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("gdsxd: opening -log %s: %v", *logDest, err)
		}
		defer f.Close()
		reqLog = f
	}

	srv := serve.New(serve.Config{
		MaxConcurrent: *maxConc,
		QueueDepth:    *queue,
		CacheEntries:  *cacheN,
		Rate:          serve.RateLimit{RPS: *rps, Burst: *burst},
		TraceRetain:   *retainN,
		RequestLog:    reqLog,
	})
	var mws []func(http.Handler) http.Handler
	if *chaosOn {
		mws = append(mws, chaos.Middleware(chaos.Config{PanicEvery: *chaosPan}))
		log.Printf("gdsxd: chaos middleware armed (panic every ~%d requests)", *chaosPan)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("gdsxd: listen %s: %v", *addr, err)
	}
	log.Printf("gdsxd: listening on %s", ln.Addr())

	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		s := <-sig
		log.Printf("gdsxd: %v received, draining", s)
		close(stop)
	}()

	httpSrv := serve.NewHTTPServer(*addr, srv.Handler(mws...))
	if err := serve.ServeGraceful(httpSrv, ln, stop, *drainFor, srv.Drain); err != nil {
		log.Printf("gdsxd: shutdown: %v", err)
		os.Exit(1)
	}
	st := srv.Snapshot()
	fmt.Printf("gdsxd: drained clean (%d requests served, %d ok)\n", st.Requests, st.OK)
}
