package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdsx"
	"gdsx/internal/interp"
	"gdsx/internal/obs"
)

// Config configures a Server. The zero value is filled with production
// defaults by New.
type Config struct {
	// Limits bound what a single request may ask for.
	Limits Limits
	// MaxConcurrent is the number of requests executing at once
	// (default: NumCPU, capped at 8 — each run spawns its own workers).
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for an
	// execution slot before arrivals get 429 queue_full (default 32).
	QueueDepth int
	// CacheEntries bounds the transform cache (default 128).
	CacheEntries int
	// ArenaBytes is each run's simulated memory capacity, the
	// transform's profiling runs included; it must cover
	// Limits.MaxMemLimit (default 64 MiB).
	ArenaBytes int64
	// Rate is the per-tenant token bucket (default 50 req/s, burst
	// 100; RPS < 0 disables rate limiting).
	Rate RateLimit
	// TraceRetain bounds each retention pool of /debug/traces: the N
	// slowest successful requests plus the N most recent errors
	// (default obs.DefaultTraceRetain).
	TraceRetain int
	// RequestLog, when set, receives one JSON line per finished
	// request (id, tenant, status, error code, shed level, cache hit,
	// queue/exec/total durations).
	RequestLog io.Writer
	// DisableObs turns the whole observability layer off — no
	// registry, no request IDs, no tracing, no logging — leaving
	// /stats counters zeroed and /metrics and /debug/traces returning
	// 404. This is the baseline the obs-serve suite of
	// `gdsxbench -suite obs` measures leave-on overhead against.
	DisableObs bool
}

func (c *Config) fill() {
	c.Limits.fill()
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
		if c.MaxConcurrent > 8 {
			c.MaxConcurrent = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = 64 << 20
	}
	if c.ArenaBytes < c.Limits.MaxMemLimit {
		c.ArenaBytes = c.Limits.MaxMemLimit
	}
	if c.Rate.RPS == 0 {
		c.Rate = RateLimit{RPS: 50, Burst: 100}
	}
}

// Server is the gdsxd request processor: admission control, the
// degradation ladder, the transform cache, and the recovered execution
// path. It is an http.Handler factory — mount Handler() on any listener.
type Server struct {
	cfg     Config
	cache   *Cache
	limiter *Limiter
	ladder  *Ladder

	sem      chan struct{} // execution slots
	slots    int           // MaxConcurrent + QueueDepth: total admission capacity
	queued   atomic.Int64  // admitted (waiting + executing)
	inflight atomic.Int64  // handlers inside the drain barrier
	draining atomic.Bool

	// The observability surface: all service counters, gauges and
	// histograms live in reg (nil when Config.DisableObs — every
	// instrument call then no-ops through obs's nil-receiver
	// discipline); traces is the tail-retention store behind
	// /debug/traces; logw the structured request log.
	reg    *obs.Registry
	traces *obs.TraceStore
	logMu  sync.Mutex
	logw   io.Writer
}

// New returns a configured Server.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		limiter: NewLimiter(cfg.Rate),
		ladder:  NewLadder(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		slots:   cfg.MaxConcurrent + cfg.QueueDepth,
	}
	if !cfg.DisableObs {
		s.reg = obs.NewRegistry()
		s.traces = obs.NewTraceStore(cfg.TraceRetain)
		s.logw = cfg.RequestLog
		// Pre-intern the always-rendered instruments so /metrics and
		// /stats expose stable families from the first scrape, not only
		// after the first event of each kind.
		s.reg.Counter("serve.requests")
		s.reg.Counter("serve.ok")
		s.reg.Counter("serve.panics")
		for lvl := 0; lvl <= shedMax; lvl++ {
			s.reg.Counter(runLevelCounter(lvl))
		}
		s.reg.Gauge("serve.shed_level")
		s.reg.Gauge("serve.queued")
		s.reg.Gauge("serve.cache_entries")
		s.reg.Histogram("serve.latency_us")
		s.reg.Histogram("serve.queue_depth")
		s.reg.Histogram("serve.exec_us")
		s.reg.Histogram("serve.build_us")
	}
	return s
}

// Handler returns the service's HTTP handler. Optional middleware (the
// chaos injector) is applied INSIDE the panic-recovery layer, so an
// injected panic becomes a structured 500 exactly like a real one.
func (s *Server) Handler(inner ...func(http.Handler) http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraceIndex)
	mux.HandleFunc("/debug/traces/", s.handleTraceGet)
	var h http.Handler = mux
	for i := len(inner) - 1; i >= 0; i-- {
		h = inner[i](h)
	}
	return s.recoverMW(h)
}

// recoverMW converts any handler panic into a structured 500. This is
// the process-survival guarantee: no request, however hostile, kills
// gdsxd.
func (s *Server) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.reg.Counter("serve.panics").Inc()
				s.writeError(w, nil, errf(CodePanic, "request handler panicked: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Drain stops admitting work and waits for in-flight requests to
// finish (or ctx to expire). After Drain, /readyz reports 503 and /run
// refuses with draining; /healthz stays 200 so orchestrators see a
// live process that is merely done taking traffic.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain expired with %d requests in flight: %w", s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// Stats is the /stats response body.
type Stats struct {
	Requests    int64            `json:"requests"`
	OK          int64            `json:"ok"`
	Errors      map[string]int64 `json:"errors,omitempty"`
	Panics      int64            `json:"panics"`
	ShedLevel   int              `json:"shed_level"`
	Pressure    float64          `json:"pressure"`
	RunsByLevel []int64          `json:"runs_by_level"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	CacheLen    int              `json:"cache_entries"`
	Queued      int64            `json:"queued"`
	Draining    bool             `json:"draining"`
}

// Snapshot returns the current service statistics, derived from one
// point-in-time registry snapshot (the same source /metrics renders)
// plus the live admission/cache/ladder state. On a DisableObs server
// the registry-backed counters read zero; the live fields still work.
func (s *Server) Snapshot() Stats {
	snap := s.reg.Snapshot()
	hits, misses := s.cache.Stats()
	st := Stats{
		Requests:    snap.Counters["serve.requests"],
		OK:          snap.Counters["serve.ok"],
		Panics:      snap.Counters["serve.panics"],
		ShedLevel:   s.ladder.Level(),
		Pressure:    s.ladder.Pressure(),
		RunsByLevel: make([]int64, shedMax+1),
		CacheHits:   hits,
		CacheMisses: misses,
		CacheLen:    s.cache.Len(),
		Queued:      s.queued.Load(),
		Draining:    s.draining.Load(),
	}
	for lvl := 0; lvl <= shedMax; lvl++ {
		st.RunsByLevel[lvl] = snap.Counters[runLevelCounter(lvl)]
	}
	for name, n := range snap.Counters {
		base, labels := obs.ParseName(name)
		if base != "serve.errors" || n == 0 || len(labels) != 1 || labels[0][0] != "code" {
			continue
		}
		if st.Errors == nil {
			st.Errors = map[string]int64{}
		}
		st.Errors[labels[0][1]] = n
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rq := s.beginRequest(r)
	defer s.finishRequest(rq)
	s.reg.Counter("serve.requests").Inc()
	if rq.id != "" {
		w.Header().Set("X-Request-ID", rq.id)
	}
	if r.Method != http.MethodPost {
		s.writeError(w, rq, errf(CodeBadReq, "POST only"))
		return
	}
	// The drain barrier must be entered before the draining check: Drain
	// sets the flag first and then waits for inflight to hit zero, so a
	// handler observed at flag-set time is either already counted (Drain
	// waits for it) or will see the flag and refuse below.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, rq, errf(CodeDraining, "server is shutting down"))
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes+1))
	if err != nil {
		s.writeError(w, rq, errf(CodeBadReq, "reading body: %v", err))
		return
	}
	req, perr := ParseRequest(body, s.cfg.Limits)
	if perr != nil {
		s.writeError(w, rq, perr)
		return
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	rq.tenant = tenant
	if ok, wait := s.limiter.Allow(tenant); !ok {
		w.Header().Set("Retry-After", retryAfter(wait))
		s.writeError(w, rq, errf(CodeRateLimit, "tenant %q over rate limit", tenant))
		return
	}

	// Admission: claim a queue slot (backpressure) and fold the observed
	// occupancy into the shed ladder — the arriving request runs at
	// whatever quality the sustained pressure dictates.
	n := s.queued.Add(1)
	defer s.queued.Add(-1)
	s.reg.Histogram("serve.queue_depth").Observe(n)
	if int(n) > s.slots {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, rq, errf(CodeQueueFull, "admission queue full (%d)", s.slots))
		return
	}
	level := s.ladder.Observe(float64(n) / float64(s.slots))
	rq.level = level
	s.reg.Gauge("serve.shed_level").Set(int64(level))
	qwait := time.Now()
	endQueue := rq.span("queue-wait")
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		endQueue("cancelled")
		rq.queueNS = int64(time.Since(qwait))
		s.writeError(w, rq, errf(CodeCancelled, "client went away while queued"))
		return
	}
	defer func() { <-s.sem }()
	endQueue("")
	rq.queueNS = int64(time.Since(qwait))

	resp, rerr := s.execute(r.Context(), req, level, rq)
	if rerr != nil {
		s.writeError(w, rq, rerr)
		return
	}
	rq.cacheHit = resp.CacheHit
	s.reg.Counter("serve.ok").Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// buildEntry runs the parse→sema(→profile→expand→sema) pipeline for a
// cache miss. Pipeline rejections are cached as negative entries. The
// transform's dependence-profiling runs execute the program, so they
// carry the building request's context and the server's op ceiling —
// otherwise a slow source would pin the build forever, past every
// request deadline — in arenas as large as the runs'. Failures that
// reflect the building request's circumstances rather than the source
// (deadline, quota) are marked transient.
func buildEntry(ctx context.Context, file, src string, guarded bool, cfg Config) *Entry {
	native, err := gdsx.Compile(file, src)
	if err != nil {
		return &Entry{Err: errf(CodeCompile, "%v", err)}
	}
	e := &Entry{Native: native}
	if len(native.ParallelLoops()) == 0 {
		// Nothing to expand: the native program is the execution plan.
		return e
	}
	tr, err := gdsx.Transform(native, gdsx.TransformOptions{
		Guard:       guarded,
		ProfileOpts: gdsx.RunOptions{Ctx: ctx, MaxOps: cfg.Limits.MaxOps, MemSize: cfg.ArenaBytes},
	})
	if err != nil {
		pe := classifyRunError(ctx, err)
		if pe.Code == CodeTimeout || pe.Code == CodeCancelled || pe.Code == CodeOOM {
			return &Entry{Err: pe, transient: true}
		}
		return &Entry{Err: errf(CodeTransform, "%v", err)}
	}
	e.Tr = tr
	return e
}

func (s *Server) execute(ctx context.Context, req *Request, level int, rq *reqState) (*Response, *Error) {
	start := time.Now()
	s.reg.Counter(runLevelCounter(level)).Inc()
	src := req.Source
	if req.Input != "" {
		src = req.Input + "\n" + req.Source
	}
	o := req.Options

	// The request deadline covers the whole pipeline, transform included
	// — a cache miss on a pathological source must not outlive the
	// request that caused it.
	timeout := time.Duration(o.TimeoutMs) * time.Millisecond
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	key := Key(src, o.Guard)
	endLookup := rq.span("cache-lookup")
	entry, hit := s.cache.Get(key, func() *Entry {
		endBuild := rq.span("build")
		t0 := time.Now()
		e := buildEntry(rctx, "request.c", src, o.Guard, s.cfg)
		s.reg.Histogram("serve.build_us").Observe(time.Since(t0).Microseconds())
		endBuild("")
		return e
	})
	if hit {
		endLookup("hit")
	} else {
		endLookup("miss")
	}
	if entry.Err != nil {
		if entry.transient {
			s.cache.Remove(key)
		}
		return nil, entry.Err
	}

	sched, _ := gdsx.SchedFromString(o.Sched)
	ropts := gdsx.RunOptions{
		Threads:  o.Threads,
		Opt:      o.opt,
		Sched:    sched,
		MemSize:  s.cfg.ArenaBytes,
		MemLimit: o.MemLimit,
		MaxOps:   o.MaxOps,
		Ctx:      rctx,
		Recover:  &gdsx.RecoverySpec{},
	}
	if level >= ShedSequential {
		ropts.Threads = 1
		ropts.ForceSequential = true
	}
	// Per-tenant region accounting rides the hook chain, and the
	// request-scoped observer carries the runtime's region/guard/
	// rollback events into the request trace (tagged with the request
	// ID). Both are region-level, so the run keeps the fast access path
	// and register promotion.
	ropts.Hooks = s.tenantHooks(rq.tenant)
	ropts.Obs = rq.obs

	resp := &Response{CacheHit: hit, ShedLevel: level}
	execStart := time.Now()
	endExec := rq.span("execute")
	defer func() {
		endExec("")
		rq.execNS = int64(time.Since(execStart))
		s.reg.Histogram("serve.exec_us").Observe(time.Since(execStart).Microseconds())
	}()
	if o.Guard && entry.Tr != nil {
		if level >= ShedSampleGuards {
			ropts.Sample = &gdsx.TierSpec{PromoteAfter: 1, SampleK: 8}
		}
		if o.FaultSuspectEvery > 0 || o.FaultRollbackEvery > 0 {
			ropts.FaultPlan = &gdsx.FaultPlan{
				SuspectEvery:  o.FaultSuspectEvery,
				RollbackEvery: o.FaultRollbackEvery,
			}
		}
		gres, err := gdsx.GuardedRunPrecompiled(entry.Native, entry.Tr, entry.Tr.Expanded, ropts)
		if err != nil {
			return nil, classifyRunError(rctx, err)
		}
		resp.Output = gres.Result.Output
		resp.Ops = totalOps(gres.Result)
		resp.Recovered = gres.Recovered
		resp.Violations = len(gres.Violations)
	} else {
		prog := entry.Native
		if entry.Tr != nil {
			prog = entry.Tr.Expanded
		}
		// Profile-guided specialization, shed level 0 only: the first run
		// of a cache entry pays for a hot-site harvest on the run's
		// observer (a bare one on a DisableObs server); every later run
		// reuses the published profile for free.
		var harvest *obs.HotSites
		if level <= ShedNone && o.opt == gdsx.OptDefault {
			if p := entry.Profile(); p != nil {
				ropts.OptProfile = p
			} else {
				if ropts.Obs == nil {
					ropts.Obs = &gdsx.Observer{}
				}
				harvest = obs.NewHotSites()
				ropts.Obs.Hot = harvest
			}
		}
		res, err := prog.Run(ropts)
		if err != nil {
			return nil, classifyRunError(rctx, err)
		}
		if harvest != nil {
			entry.SetProfile(gdsx.SiteProfileFromReports(harvest.Report()))
		}
		resp.Output = res.Output
		resp.Ops = totalOps(res)
		for _, reg := range res.Regions {
			resp.Recovered += reg.Rollbacks
		}
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

func totalOps(r gdsx.Result) int64 {
	var n int64
	for _, c := range r.Counters {
		n += c
	}
	return n
}

// classifyRunError maps an execution error onto the service's code
// vocabulary. Cancellation is split by cause: a deadline that elapsed
// is the service's timeout; anything else means the client went away.
func classifyRunError(ctx context.Context, err error) *Error {
	var ce *gdsx.CancelledError
	if errors.As(err, &ce) {
		if errors.Is(context.Cause(ctx), context.DeadlineExceeded) || errors.Is(ce.Cause, context.DeadlineExceeded) {
			return errf(CodeTimeout, "%v", err)
		}
		return errf(CodeCancelled, "%v", err)
	}
	// Quota exhaustion surfaces as a RuntimeError when a program
	// allocation fails, but as a bare mem error when the interpreter's
	// own allocations (worker stacks) hit the limit — match the message,
	// not the type.
	if strings.Contains(err.Error(), "out of memory") {
		return errf(CodeOOM, "%v", err)
	}
	var re interp.RuntimeError
	if errors.As(err, &re) {
		return errf(CodeRuntime, "%v", err)
	}
	return errf(CodeRuntime, "%v", err)
}

func statusFor(code Code) int {
	switch code {
	case CodeBadReq, CodeCompile, CodeTransform:
		return http.StatusBadRequest
	case CodeRuntime, CodeOOM:
		return http.StatusUnprocessableEntity
	case CodeCancelled:
		return 499 // client closed request (nginx convention)
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeRateLimit, CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the structured error response, counts it per code,
// and settles the request's outcome on rq (nil from layers without a
// request context, e.g. the panic recoverer).
func (s *Server) writeError(w http.ResponseWriter, rq *reqState, e *Error) {
	s.reg.Counter(obs.Labeled("serve.errors", "code", string(e.Code))).Inc()
	if rq != nil {
		rq.status = statusFor(e.Code)
		rq.code = e.Code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusFor(e.Code))
	json.NewEncoder(w).Encode(e)
}

func retryAfter(wait time.Duration) string {
	secs := int(wait/time.Second) + 1
	return strconv.Itoa(secs)
}
