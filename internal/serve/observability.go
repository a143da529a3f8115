package serve

// Service observability: per-request tracing with tail retention,
// the registry-backed metrics surface (/metrics, /stats), and the
// structured request log. The design constraint throughout is that a
// request must stay on the runtime's fast path: every instrument a run
// carries — the request's observer (tracer + registry), the per-tenant
// region hook — is region-level, leaves the access path alone and
// keeps register promotion, so every request is traced.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"gdsx/internal/interp"
	"gdsx/internal/obs"
)

// requestTraceLimit bounds one request's trace buffer. Request traces
// carry region-granularity runtime events plus a handful of service
// spans; 4096 events is generous for any single request while keeping
// a full retention store under a few MiB.
const requestTraceLimit = 4096

// validRequestID accepts the inbound X-Request-ID charset: anything
// else is treated as absent and a fresh ID is generated, so a hostile
// header can't smuggle bytes into logs or label values.
var validRequestID = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,128}$`)

// genID returns a fresh 16-hex-char request ID.
func genID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// reqState carries one request's observability context through the
// handler: identity, the request-scoped tracer and observer, and the
// request-level facts the log line and trace index render. A reqState
// from a DisableObs server has an empty ID and nil tracer, and every
// method on it is inert.
type reqState struct {
	id     string
	tenant string
	start  time.Time

	tracer *obs.Tracer
	obs    *obs.Observer

	status   int
	code     Code
	level    int
	cacheHit bool
	queueNS  int64
	execNS   int64
}

// beginRequest assigns the request its ID (a well-formed inbound
// X-Request-ID names the trace, otherwise one is generated) and opens
// its request-scoped tracer and observer.
func (s *Server) beginRequest(r *http.Request) *reqState {
	rq := &reqState{start: time.Now(), status: http.StatusOK}
	if s.reg == nil {
		return rq
	}
	rq.id = r.Header.Get("X-Request-ID")
	if !validRequestID.MatchString(rq.id) {
		rq.id = genID()
	}
	rq.tracer = obs.NewTracer(requestTraceLimit)
	rq.tracer.Tag = rq.id
	rq.obs = &obs.Observer{Trace: rq.tracer, Metrics: s.reg}
	return rq
}

// span opens a service-level span on the request trace and returns
// the closure that completes it (with an optional label, e.g. the
// cache-lookup verdict). Inert on a DisableObs server.
func (rq *reqState) span(name string) func(label string) {
	if rq == nil || rq.tracer == nil {
		return func(string) {}
	}
	ts := rq.tracer.Now()
	return func(label string) {
		rq.tracer.Emit(obs.Event{
			Name: name, Ph: 'X', TS: ts, Dur: rq.tracer.Now() - ts,
			Tid: obs.ServiceTid, Iter: -1, Label: label,
		})
	}
}

// requestLogLine is the JSON shape of one structured request-log line.
type requestLogLine struct {
	Time      string  `json:"time"`
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant,omitempty"`
	Status    int     `json:"status"`
	Code      string  `json:"code,omitempty"`
	ShedLevel int     `json:"shed_level"`
	CacheHit  bool    `json:"cache_hit"`
	QueueMs   float64 `json:"queue_ms"`
	ExecMs    float64 `json:"exec_ms"`
	TotalMs   float64 `json:"total_ms"`
	Traced    bool    `json:"traced"`
}

// finishRequest settles a request's observability: the latency
// histogram and per-tenant counters, the log line, and the trace
// store offer. Admission refusals (rate-limit, queue-full, draining)
// are errors to the client but their traces are not offered at all —
// under overload they arrive by the thousand and would wash every
// interesting failure out of the error ring and crowd the slowest
// successes out of the other pool.
func (s *Server) finishRequest(rq *reqState) {
	if s.reg == nil {
		return
	}
	total := time.Since(rq.start)
	s.reg.Histogram("serve.latency_us").Observe(total.Microseconds())
	tenant := rq.tenant
	s.reg.Counter(obs.Labeled("serve.tenant.requests", "tenant", tenant)).Inc()
	if rq.status == http.StatusOK {
		s.reg.Counter(obs.Labeled("serve.tenant.ok", "tenant", tenant)).Inc()
	} else {
		s.reg.Counter(obs.Labeled("serve.tenant.errors", "tenant", tenant)).Inc()
	}

	if s.logw != nil {
		line := requestLogLine{
			Time:      rq.start.UTC().Format(time.RFC3339Nano),
			ID:        rq.id,
			Tenant:    rq.tenant,
			Status:    rq.status,
			Code:      string(rq.code),
			ShedLevel: rq.level,
			CacheHit:  rq.cacheHit,
			QueueMs:   float64(rq.queueNS) / 1e6,
			ExecMs:    float64(rq.execNS) / 1e6,
			TotalMs:   float64(total) / 1e6,
			Traced:    rq.tracer != nil,
		}
		buf, err := json.Marshal(line)
		if err == nil {
			s.logMu.Lock()
			s.logw.Write(append(buf, '\n'))
			s.logMu.Unlock()
		}
	}

	switch rq.code {
	case CodeRateLimit, CodeQueueFull, CodeDraining:
		return
	}
	s.traces.Offer(&obs.RetainedTrace{
		ID: rq.id, Tenant: rq.tenant, Start: rq.start, Dur: total,
		Status: rq.status, Code: string(rq.code), Error: rq.code != "", Tracer: rq.tracer,
	})
}

// tenantHooks returns the per-run hook layer counting parallel regions
// per tenant. It carries only region-level hooks, so chaining it under
// the observability adapter (Machine.New composes the two through
// ChainHooks) keeps scalar promotion and the fast access path.
func (s *Server) tenantHooks(tenant string) *interp.Hooks {
	if s.reg == nil {
		return nil
	}
	regions := s.reg.Counter(obs.Labeled("serve.tenant.regions", "tenant", tenant))
	return &interp.Hooks{
		ParallelStart: func(loopID, nthreads int) { regions.Inc() },
	}
}

// handleMetrics renders the registry in Prometheus text exposition
// format, refreshing the point-in-time gauges at scrape time and
// appending the families whose source of truth lives outside the
// registry (the cache's own hit/miss counters, the ladder's float
// pressure, the draining flag).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	s.reg.Gauge("serve.shed_level").Set(int64(s.ladder.Level()))
	s.reg.Gauge("serve.queued").Set(s.queued.Load())
	s.reg.Gauge("serve.cache_entries").Set(int64(s.cache.Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w, "gdsx")
	hits, misses := s.cache.Stats()
	fmt.Fprintf(w, "# TYPE gdsx_serve_cache_hits_total counter\ngdsx_serve_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE gdsx_serve_cache_misses_total counter\ngdsx_serve_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# TYPE gdsx_serve_pressure gauge\ngdsx_serve_pressure %g\n", s.ladder.Pressure())
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# TYPE gdsx_serve_draining gauge\ngdsx_serve_draining %d\n", draining)
}

// handleTraceIndex serves the retained-trace index as JSON: the N
// slowest successful requests plus the most recent errors.
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	list := s.traces.List()
	if list == nil {
		list = []obs.TraceSummary{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(list)
}

// handleTraceGet serves one retained trace as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" {
		s.handleTraceIndex(w, r)
		return
	}
	rt := s.traces.Get(id)
	if rt == nil {
		http.Error(w, "no retained trace with that id", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rt.Tracer.WriteChrome(w)
}

// runLevelCounter names the per-shed-level run counter.
func runLevelCounter(level int) string {
	return obs.Labeled("serve.runs", "level", strconv.Itoa(level))
}
