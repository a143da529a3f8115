// Package serve implements gdsxd, the long-lived multi-tenant
// transform-and-run service: it accepts {source, input, options}
// requests over HTTP and runs the full parse→sema→expand→execute
// pipeline with per-request isolation (panic recovery, memory quotas,
// cooperative deadline cancellation), admission control (bounded
// queue, per-tenant token buckets), a load-shedding ladder that
// degrades execution quality before refusing work, and an LRU
// transform cache with single-flight deduplication. See DESIGN.md §7.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"gdsx"
)

// Code classifies a request's failure; every non-200 response carries
// exactly one. The vocabulary is part of the service API: clients and
// the chaos harness key off it, so additions are fine but renames are
// breaking.
type Code string

const (
	CodeOK        Code = "ok"
	CodeBadReq    Code = "bad_request"   // malformed JSON or invalid options
	CodeCompile   Code = "compile_error" // parse or sema rejection
	CodeTransform Code = "transform_error"
	CodeRuntime   Code = "runtime_error" // MiniC fault (null deref, OOB, ...)
	CodeOOM       Code = "oom"           // memory quota or capacity exhausted
	CodeCancelled Code = "cancelled"     // client disconnected mid-run
	CodeTimeout   Code = "timeout"       // request deadline elapsed mid-run
	CodeRateLimit Code = "rate_limited"  // per-tenant token bucket empty
	CodeQueueFull Code = "queue_full"    // admission queue at capacity
	CodeDraining  Code = "draining"      // server is shutting down
	CodePanic     Code = "internal_panic"
)

// Error is a structured request failure: a stable code plus a
// human-readable detail. It is both the handler's JSON error body and
// a Go error, so the execution path can return it directly.
type Error struct {
	Code   Code   `json:"code"`
	Detail string `json:"detail,omitempty"`
}

func (e *Error) Error() string { return string(e.Code) + ": " + e.Detail }

func errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Options are the client-settable execution knobs. Every field is
// validated and clamped against the server's Limits — a tenant cannot
// request more threads, memory or time than the operator allows.
type Options struct {
	// Threads is the simulated thread count (default 4, clamped to the
	// server's MaxThreads).
	Threads int `json:"threads,omitempty"`
	// Engine selects "compiled" (default) or "compiled-noopt";
	// ParseRequest resolves it to opt.
	Engine string `json:"engine,omitempty"`
	// Sched selects "stealing" (default) or "static".
	Sched string `json:"sched,omitempty"`
	// Guard runs the expanded program under the guarded-execution
	// monitor with region recovery (slower, but survives inputs the
	// profile never saw).
	Guard bool `json:"guard,omitempty"`
	// MemLimit caps the request's live simulated bytes (default and
	// ceiling come from the server's Limits).
	MemLimit int64 `json:"mem_limit,omitempty"`
	// MaxOps bounds the simulated operation count (0 = server default).
	MaxOps int64 `json:"max_ops,omitempty"`
	// TimeoutMs bounds wall-clock execution; the deadline cancels the
	// interpreter cooperatively mid-region (0 = server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// FaultSuspectEvery / FaultRollbackEvery arm the interpreter's
	// chaos fault plan (spurious guard suspicions / forced rollbacks
	// every nth healthy region). Only honored when Guard is set; used
	// by the chaos harness to exercise the recovery ladder end to end.
	FaultSuspectEvery  int `json:"fault_suspect_every,omitempty"`
	FaultRollbackEvery int `json:"fault_rollback_every,omitempty"`

	// opt is the optimization level Engine names.
	opt gdsx.OptLevel
}

// Request is the body of POST /run.
type Request struct {
	// Source is the MiniC program (required).
	Source string `json:"source"`
	// Input, when non-empty, is prepended to Source — the idiom for
	// supplying data declarations to a reusable kernel without editing
	// the kernel text (and without a second cache entry per data set:
	// the cache key covers the combined text).
	Input string `json:"input,omitempty"`
	// Tenant identifies the caller for rate limiting ("" is its own
	// tenant). The X-Tenant header overrides it.
	Tenant  string  `json:"tenant,omitempty"`
	Options Options `json:"options"`
}

// Response is the body of a successful POST /run.
type Response struct {
	Output string `json:"output"`
	// Ops is the simulated work-instruction count.
	Ops int64 `json:"ops"`
	// CacheHit reports whether the transform cache served this request.
	CacheHit bool `json:"cache_hit"`
	// ShedLevel is the degradation level the request ran at (0 = full
	// quality; see ladder.go).
	ShedLevel int `json:"shed_level"`
	// Recovered counts parallel regions rolled back and re-executed
	// sequentially (guarded runs only).
	Recovered int `json:"recovered,omitempty"`
	// Violations counts guard violations absorbed by recovery.
	Violations int     `json:"violations,omitempty"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// Limits are the server-side validation bounds. The zero value is
// filled with production defaults by fill().
type Limits struct {
	MaxSourceBytes int64
	MaxBodyBytes   int64
	MaxThreads     int
	DefaultThreads int
	MaxMemLimit    int64
	DefMemLimit    int64
	MaxOps         int64 // ceiling AND default: an unbounded run can pin a worker forever
	MaxTimeout     time.Duration
	DefTimeout     time.Duration
}

func (l *Limits) fill() {
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = 1 << 20
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = l.MaxSourceBytes + (64 << 10)
	}
	if l.MaxThreads <= 0 {
		l.MaxThreads = 16
	}
	if l.DefaultThreads <= 0 {
		l.DefaultThreads = 4
	}
	if l.MaxMemLimit <= 0 {
		l.MaxMemLimit = 48 << 20
	}
	if l.DefMemLimit <= 0 {
		l.DefMemLimit = 16 << 20
	}
	if l.MaxOps <= 0 {
		l.MaxOps = 500_000_000
	}
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = 30 * time.Second
	}
	if l.DefTimeout <= 0 {
		l.DefTimeout = 10 * time.Second
	}
}

// ParseRequest decodes and validates a request body against the
// limits. It must never panic on any input (FuzzServeRequest holds it
// to that): every rejection is a structured bad_request Error.
func ParseRequest(body []byte, lim Limits) (*Request, *Error) {
	lim.fill()
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, errf(CodeBadReq, "body exceeds %d bytes", lim.MaxBodyBytes)
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, errf(CodeBadReq, "invalid JSON: %v", err)
	}
	if req.Source == "" {
		return nil, errf(CodeBadReq, "source is required")
	}
	if int64(len(req.Source))+int64(len(req.Input)) > lim.MaxSourceBytes {
		return nil, errf(CodeBadReq, "source exceeds %d bytes", lim.MaxSourceBytes)
	}
	if len(req.Tenant) > 256 {
		return nil, errf(CodeBadReq, "tenant name exceeds 256 bytes")
	}
	o := &req.Options
	if o.Threads < 0 || o.Threads > lim.MaxThreads {
		return nil, errf(CodeBadReq, "threads %d out of range [0, %d]", o.Threads, lim.MaxThreads)
	}
	if o.Threads == 0 {
		o.Threads = lim.DefaultThreads
	}
	opt, ok := gdsx.OptFromEngine(o.Engine)
	if !ok {
		return nil, errf(CodeBadReq, "unknown engine %q", o.Engine)
	}
	o.opt = opt
	if _, ok := gdsx.SchedFromString(o.Sched); !ok {
		return nil, errf(CodeBadReq, "unknown scheduler %q", o.Sched)
	}
	if o.MemLimit < 0 || o.MemLimit > lim.MaxMemLimit {
		return nil, errf(CodeBadReq, "mem_limit %d out of range [0, %d]", o.MemLimit, lim.MaxMemLimit)
	}
	if o.MemLimit == 0 {
		o.MemLimit = lim.DefMemLimit
	}
	if o.MaxOps < 0 || o.MaxOps > lim.MaxOps {
		return nil, errf(CodeBadReq, "max_ops %d out of range [0, %d]", o.MaxOps, lim.MaxOps)
	}
	if o.MaxOps == 0 {
		o.MaxOps = lim.MaxOps
	}
	if o.TimeoutMs < 0 || time.Duration(o.TimeoutMs)*time.Millisecond > lim.MaxTimeout {
		return nil, errf(CodeBadReq, "timeout_ms %d out of range [0, %d]",
			o.TimeoutMs, lim.MaxTimeout.Milliseconds())
	}
	if o.TimeoutMs == 0 {
		o.TimeoutMs = lim.DefTimeout.Milliseconds()
	}
	if o.FaultSuspectEvery < 0 || o.FaultRollbackEvery < 0 {
		return nil, errf(CodeBadReq, "fault plan intervals must be non-negative")
	}
	if (o.FaultSuspectEvery > 0 || o.FaultRollbackEvery > 0) && !o.Guard {
		return nil, errf(CodeBadReq, "fault plan requires guard: true (the plan drives the recovery ladder)")
	}
	return &req, nil
}
