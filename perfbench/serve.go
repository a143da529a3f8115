package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

// Serve traffic. The open loop offers about 15% of the closed-loop
// capacity measured on the seed commit on 2 CPUs (about 200 req/s).
const (
	offeredRate = 30.0 // requests per second in the open-loop phase
	openShare   = 0.4  // share of the window spent in the open loop
	callers     = 2    // at most this many calls outstanding
	prefillN    = 4    // kernel ranks whose keys set-up builds
	minClass    = 20   // closed-loop requests each class needs
)

// serveMix is the request pool: six Table-4 programs whose test-scale
// build is under 0.1 s are the hot keys; the kernel's N is the long
// tail over a key space (64 N, with and without guard, plus the hot
// keys) larger than the server's 128-entry cache.
var serveMix = mix{
	hot:        []string{"dijkstra", "md5", "mpeg2-decoder", "256.bzip2", "456.hmmer", "470.lbm"},
	hotShare:   0.6,
	zipfS:      2.5,
	ranks:      64,
	baseN:      2,
	guardEvery: 5,
	tenants:    8,
}

// closedMix is serveMix restricted to the kernel ranks set-up builds,
// so the closed loop measures the hit path: execution, the arena pool,
// admission and encoding, without builds.
func closedMix() mix {
	m := serveMix
	m.ranks = prefillN
	return m
}

// opClasses are the request classes whose closed-loop median latencies
// make the serve workload's op_ms.
func opClasses() []string {
	var cs []string
	for _, name := range append(append([]string(nil), serveMix.hot...), "kernel") {
		cs = append(cs, name, name+"+guard")
	}
	return cs
}

// served is the outcome of one request.
type served struct {
	status int
	id     string
	resp   serve.Response
}

// logSink is the traced run's request log: the server writes one JSON
// line per request, kept while on is set.
type logSink struct {
	mu  sync.Mutex
	on  bool
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.on {
		s.buf.Write(p)
	}
	return len(p), nil
}

func (s *logSink) set(on bool) {
	s.mu.Lock()
	s.on = on
	s.mu.Unlock()
}

// logLine is the part of serve's request-log line the ledger reads.
type logLine struct {
	ID      string  `json:"id"`
	QueueMs float64 `json:"queue_ms"`
	ExecMs  float64 `json:"exec_ms"`
	TotalMs float64 `json:"total_ms"`
	Traced  bool    `json:"traced"`
}

// serveRun holds one server and the encoded request bodies.
type serveRun struct {
	b      *bench
	h      http.Handler
	sink   *logSink
	mu     sync.Mutex
	bodies map[reqSpec][]byte
}

func (sr *serveRun) body(s reqSpec) []byte {
	key := s
	key.tenant = 0
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if b, ok := sr.bodies[key]; ok {
		return b
	}
	req := serve.Request{Options: serve.Options{Guard: s.guard}}
	if s.prog != "" {
		req.Source = workloads.ByName(s.prog).Source(workloads.Test)
	} else {
		req.Source, req.Input = kernel, kernelInput(s.n)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a serve.Request always encodes
	}
	sr.bodies[key] = b
	return b
}

// do sends one request straight to the handler (no listener, no
// sockets), checks it, and records it as one operation.
func (sr *serveRun) do(t *tracer, lane int, s reqSpec) served {
	r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(sr.body(s)))
	r.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", s.tenant))
	w := httptest.NewRecorder()
	id := t.begin("serve.request", -1, t.op(), lane)
	sr.h.ServeHTTP(w, r)
	t.end(id)
	out := served{status: w.Code, id: w.Header().Get("X-Request-ID")}
	var err error
	if w.Code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	} else if err = json.Unmarshal(w.Body.Bytes(), &out.resp); err == nil {
		want := kernelRef(s.n)
		if s.prog != "" {
			want = references[refKey(s.prog, workloads.Test)]
		}
		if out.resp.Output != want {
			err = fmt.Errorf("output %q, reference %q", out.resp.Output, want)
		}
	}
	sr.b.opDone(s.String(), err)
	return out
}

func (sr *serveRun) get(path string) string {
	w := httptest.NewRecorder()
	sr.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Body.String()
}

// promValue reads one sample of a Prometheus text exposition.
func promValue(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// runServe drives seeded multi-tenant traffic against a serve.Server
// with production defaults. The open-loop phase sends Poisson arrivals
// at offeredRate from the full mix, long tail included, and times each
// request from its due time. The closed-loop phase then runs two
// callers over the hit path only and gives op_ms (the geomean of the
// per-class median latencies) and ops_per_s. Set-up checks the hot
// programs outside the server, builds the server and warms its cache.
func runServe(b *bench) error {
	var hot []program
	for _, p := range pool() {
		for _, name := range serveMix.hot {
			if p.name == name {
				hot = append(hot, p)
			}
		}
	}
	fmt.Printf("scale=test, offered=%.1f req/s, callers=%d, server defaults (serve.Config{})\n", offeredRate, callers)
	var sr *serveRun
	if err := b.setup(func() error {
		es, err := b.buildPool(hot, workloads.Test)
		if err != nil {
			return err
		}
		b.runPass(b.t, es, 0)
		sr = &serveRun{b: b, bodies: map[reqSpec][]byte{}}
		cfg := serve.Config{}
		if b.t != nil {
			sr.sink = &logSink{}
			cfg.RequestLog = sr.sink
		}
		sr.h = serve.New(cfg).Handler()
		// Warm the cache with every hot key and the kernel's head, then
		// run one second of closed-loop traffic.
		for _, g := range []bool{false, true} {
			for _, name := range serveMix.hot {
				sr.do(nil, 0, reqSpec{prog: name, guard: g})
			}
			for rank := 0; rank < prefillN; rank++ {
				sr.do(nil, 0, reqSpec{n: serveMix.baseN + rank, guard: g})
			}
		}
		warm := newDrawer(closedMix(), -b.seed-1)
		runClosedLoop(warm, callers, time.Now().Add(time.Second), func(lane int, s reqSpec) { sr.do(nil, lane, s) })
		return nil
	}); err != nil {
		return err
	}

	openDur := time.Duration(float64(b.window) * openShare)
	calls := openLoopSchedule(b.seed, serveMix, offeredRate, openDur)
	before := ""
	if b.t != nil {
		sr.sink.set(true)
		before = sr.get("/metrics")
	}
	runtime.GC()
	results := make([]served, len(calls))
	timings := runOpenLoop(calls, callers, func(lane, i int, c call) {
		results[i] = sr.do(b.t, lane, c.spec)
	})
	sr.openReport(calls, results, timings)

	// The closed loop; the traced run leaves its first half untraced,
	// which gives trace.overhead.
	closedDur := b.window - openDur
	var mu sync.Mutex
	classes := map[string][]float64{}
	closed := func(t *tracer, seed int64, dur time.Duration) float64 {
		runtime.GC()
		n := runClosedLoop(newDrawer(closedMix(), seed), callers, time.Now().Add(dur), func(lane int, s reqSpec) {
			t0 := time.Now()
			r := sr.do(t, lane, s)
			lat := ms(time.Since(t0))
			if r.status == http.StatusOK && t == nil {
				mu.Lock()
				classes[s.class()] = append(classes[s.class()], lat)
				mu.Unlock()
			}
		})
		return float64(n) / dur.Seconds()
	}
	if b.t != nil {
		sr.sink.set(false)
		untraced := closed(nil, b.seed+1, closedDur/2)
		sr.sink.set(true)
		traced := closed(b.t, b.seed+2, closedDur/2)
		fmt.Printf("closed loop: %.1f req/s untraced, %.1f req/s traced\n", untraced, traced)
		sr.serveLedger(results, timings, before)
		b.layerMetrics(untraced/traced - 1)
		return nil
	}
	rps := closed(nil, b.seed+1, closedDur)
	fmt.Printf("%-24s %8s %10s\n", "closed-loop class", "requests", "p50_ms")
	var meds []float64
	for _, c := range opClasses() {
		xs := classes[c]
		fmt.Printf("%-24s %8d %10.2f\n", c, len(xs), median(xs))
		if len(xs) < minClass {
			return fmt.Errorf("closed loop made %d %s requests, fewer than %d", len(xs), c, minClass)
		}
		meds = append(meds, median(xs))
	}
	fmt.Printf("serve_rps %.3f (closed loop, %d callers, %.1f s)\n", rps, callers, closedDur.Seconds())
	b.set("op_ms", geomean(meds), "ms")
	b.set("ops_per_s", rps, "1/s")
	return nil
}

// openReport prints the open-loop phase: hits and misses, the hit
// latency percentiles that have ten samples beyond them, the miss
// median, refusals, the highest shed level and how late the load
// generator ran.
func (sr *serveRun) openReport(calls []call, results []served, timings []timing) {
	var hits, misses, lags []float64
	classes := map[string][]float64{}
	refused, maxShed := 0, 0
	for i, r := range results {
		lags = append(lags, ms(timings[i].lag()))
		lat := ms(timings[i].latency())
		switch {
		case r.status == http.StatusTooManyRequests:
			refused++
		case r.status != http.StatusOK:
		case r.resp.CacheHit:
			hits = append(hits, lat)
			classes[calls[i].spec.class()] = append(classes[calls[i].spec.class()], lat)
		default:
			misses = append(misses, lat)
		}
		maxShed = max(maxShed, r.resp.ShedLevel)
	}
	fmt.Printf("open loop: %.1f req/s offered for %.1f s, %d callers; %d requests: %d hits, %d misses, %d refused (429), max shed level %d\n",
		offeredRate, ms(timings[len(timings)-1].due)/1e3, callers, len(calls), len(hits), len(misses), refused, maxShed)
	fmt.Printf("hit_p50_ms %.3f (n=%d)\n", median(hits), len(hits))
	for _, q := range []float64{0.95, 0.99} {
		if v, ok := percentile(hits, q); ok {
			fmt.Printf("hit_p%.0f_ms %.3f\n", 100*q, v)
		} else {
			fmt.Printf("hit_p%.0f_ms needs %d hits, have %d\n", 100*q, int(tenBeyond/(1-q)+0.5), len(hits))
		}
	}
	fmt.Printf("miss_p50_ms %.3f (n=%d)\n", median(misses), len(misses))
	if v, ok := percentile(lags, 0.95); ok {
		fmt.Printf("load.lag_p95_ms %.3f\n", v)
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %8s %10s\n", "open-loop hit class", "requests", "p50_ms")
	for _, name := range names {
		fmt.Printf("%-24s %8d %10.2f\n", name, len(classes[name]), median(classes[name]))
	}
}

// serveLedger prints the serve layer's split of the traced open-loop
// requests from the server's request log and /metrics.
func (sr *serveRun) serveLedger(results []served, timings []timing, metricsBefore string) {
	lines := map[string]logLine{}
	sc := bufio.NewScanner(bytes.NewReader(sr.sink.buf.Bytes()))
	traced := 0
	for sc.Scan() {
		var l logLine
		if json.Unmarshal(sc.Bytes(), &l) == nil {
			lines[l.ID] = l
			if l.Traced {
				traced++
			}
		}
	}
	var queue, exec, other, outside []float64
	hits := 0
	for i, r := range results {
		l, ok := lines[r.id]
		if !ok {
			continue
		}
		queue = append(queue, l.QueueMs)
		exec = append(exec, l.ExecMs)
		other = append(other, l.TotalMs-l.QueueMs-l.ExecMs)
		outside = append(outside, ms(timings[i].end-timings[i].send)-l.TotalMs)
		if r.resp.CacheHit {
			hits++
		}
	}
	after := sr.get("/metrics")
	builds := promValue(after, "gdsx_serve_build_us_count") - promValue(metricsBefore, "gdsx_serve_build_us_count")
	buildUs := promValue(after, "gdsx_serve_build_us_sum") - promValue(metricsBefore, "gdsx_serve_build_us_sum")
	fmt.Printf("serve layer over %d logged open-loop requests (means):\n", len(queue))
	fmt.Printf("  serve.queue.ms %.3f  serve.exec.ms %.3f  serve.other.ms %.3f  serve.outside.ms %.3f\n",
		mean(queue), mean(exec), mean(other), mean(outside))
	if builds > 0 {
		fmt.Printf("  serve.build.ms %.3f over %.0f builds\n", buildUs/builds/1e3, builds)
	}
	if len(queue) > 0 {
		fmt.Printf("  serve.cache_hit_ratio %.4f  serve.traced_share %.4f\n",
			float64(hits)/float64(len(queue)), float64(traced)/float64(len(lines)))
	}
	fmt.Printf("  /stats %s", sr.get("/stats"))
}
