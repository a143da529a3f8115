package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one structured trace event. TS and Dur are nanoseconds on
// the tracer's clock; the Chrome exporter converts to the microsecond
// doubles the trace-event format specifies.
//
// Events use fixed fields instead of an args map so the hot producers
// (per-iteration spans) allocate nothing beyond the slice slot: Loop
// and Iter carry the loop-scoped identity (0 / -1 when not
// applicable), Label a short string detail (violation rule, failure
// kind, allocation label), and V1/V2 two event-specific values whose
// exported names the event schema table below assigns per event name.
type Event struct {
	Name  string // event type: "region", "iter", "guard-verdict", ...
	Ph    byte   // trace-event phase: 'B', 'E', 'X' or 'i'
	TS    int64  // ns since the tracer started
	Dur   int64  // ns, complete ('X') events only
	Tid   int    // simulated thread id
	Loop  int    // loop ID, 0 when the event is not loop-scoped
	Iter  int64  // iteration, -1 when not iteration-scoped
	Label string // short detail
	V1    int64  // first event-specific value (see eventSchema)
	V2    int64  // second event-specific value (see eventSchema)
}

// eventSchema names the V1/V2 values per event name for the JSON
// export, and marks values that are excluded from the canonical stream
// because they are not deterministic across runs (addresses assigned
// by racing in-region allocations).
type eventSchema struct {
	v1, v2  string
	v1Canon bool
	v2Canon bool
	// noCanon excludes the event from the canonical stream entirely:
	// whether it occurs at all (and how often) depends on real thread
	// timing, not on the simulated work.
	noCanon bool
}

var eventSchemas = map[string]eventSchema{
	"region": {v1: "nthreads", v1Canon: true, v2Canon: true},
	"iter":   {v1Canon: true, v2Canon: true},
	// The violation total of a replay depends on which iterations
	// shared a worker: under work stealing that is host scheduling, so
	// the total varies run to run while the verdict label (clean or the
	// first violation's rule) and the logged event count do not.
	"guard-verdict": {v1: "logged", v2: "violations", v1Canon: true},
	// The replay's page filter drops loads on pages no store touches;
	// racing in-region allocations move stores between pages, so the
	// split between replayed and dropped accesses is not canonical.
	"guard-replay": {v1: "replayed", v2: "dropped"},
	// Snapshot page/byte totals depend on which pages the region dirtied;
	// racing in-region allocations make the concrete page set (and hence
	// both values) nondeterministic at n > 1, so neither is canonical.
	"checkpoint-commit": {v1: "pages", v2: "bytes"},
	"rollback":          {v1: "pages", v2: "bytes"},
	"demote":            {v1: "strikes", v1Canon: true, v2Canon: true},
	"narrow":            {v1: "from", v2: "to", v1Canon: true, v2Canon: true},
	"expand":            {v1: "base", v2: "span", v2Canon: true},
	// A steal happens when one worker outpaces another — pure host
	// scheduling. victim/count are real but unreproducible.
	"steal": {v1: "victim", v2: "count", noCanon: true},
	// The per-region scheduler summary is deterministic except for its
	// steal count.
	"sched": {v1: "steals", v2: "nthreads", v2Canon: true},
	// Service-level request spans (emitted by internal/serve into a
	// request-scoped tracer): pure wall-clock phases of the HTTP request
	// path, never part of a runtime-parity canonical stream.
	"queue-wait":   {noCanon: true},
	"cache-lookup": {noCanon: true},
	"build":        {noCanon: true},
	"execute":      {noCanon: true},
}

func schemaOf(name string) eventSchema {
	if s, ok := eventSchemas[name]; ok {
		return s
	}
	return eventSchema{v1: "v1", v2: "v2", v1Canon: true, v2Canon: true}
}

// DefaultTraceLimit bounds the event buffer of NewTracer(0): enough
// for every region-granularity event of any workload plus a generous
// iteration-span budget, at roughly 20 MiB of buffer.
const DefaultTraceLimit = 1 << 18

// ServiceTid is the simulated-thread id service-level producers emit
// request spans on. It sits far above any worker tid a runtime config
// can reach, so the request-phase track and the sim-thread tracks
// never collide in an exported trace.
const ServiceTid = 1000

// Tracer collects events from all threads of a run. Emission is a
// mutex-guarded append with an early-out once the limit is reached
// (dropped events are counted, never silently lost).
//
// Tag, when set (before the tracer is shared across goroutines),
// stamps every exported Chrome event with a request_id arg — the
// request-scoped tracer gdsxd opens for every request sets it to the
// request ID so runtime region/guard/rollback events are attributable
// to the request that produced them.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int64
	start   time.Time

	Tag string
}

// NewTracer creates a tracer holding at most limit events
// (limit <= 0 selects DefaultTraceLimit).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{limit: limit, start: time.Now()}
}

// Now returns the current trace clock in nanoseconds since the tracer
// was created.
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// Emit appends one event, dropping it (and counting the drop) once the
// buffer is full.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	if len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// EmitBatch appends a batch of events under one lock acquisition (used
// by the per-worker iteration-span buffers flushed at region end).
func (t *Tracer) EmitBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	t.mu.Lock()
	room := t.limit - len(t.events)
	if room < 0 {
		room = 0
	}
	if room >= len(evs) {
		t.events = append(t.events, evs...)
	} else {
		t.events = append(t.events, evs[:room]...)
		t.dropped += int64(len(evs) - room)
	}
	t.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of collected events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded because the buffer
// was full.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is the JSON shape of one Chrome trace-event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of a trace file, the shape
// Perfetto and chrome://tracing load directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome serializes the trace in the Chrome trace-event JSON
// object format. Simulated threads appear as tids of pid 1, named via
// metadata events so Perfetto labels the tracks.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	seen := map[int]bool{}
	tids := []int{}
	for _, ev := range events {
		if !seen[ev.Tid] {
			seen[ev.Tid] = true
			tids = append(tids, ev.Tid)
		}
	}
	sort.Ints(tids)
	ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Cat: "__metadata",
		Args: map[string]any{"name": "gdsx simulated machine"},
	})
	for _, tid := range tids {
		name := fmt.Sprintf("sim-thread-%d", tid)
		if tid == ServiceTid {
			name = "gdsxd-request"
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Cat: "__metadata",
			Args: map[string]any{"name": name},
		})
	}
	for _, ev := range events {
		sch := schemaOf(ev.Name)
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  "gdsx",
			Ph:   string(ev.Ph),
			TS:   float64(ev.TS) / 1e3,
			Pid:  1,
			Tid:  ev.Tid,
		}
		if ev.Ph == 'X' {
			dur := float64(ev.Dur) / 1e3
			ce.Dur = &dur
		}
		if ev.Ph == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		args := map[string]any{}
		if ev.Loop != 0 {
			args["loop"] = ev.Loop
		}
		if ev.Iter >= 0 && ev.Name == "iter" {
			args["iter"] = ev.Iter
		}
		if ev.Label != "" {
			args["label"] = ev.Label
		}
		if sch.v1 != "" {
			args[sch.v1] = ev.V1
		}
		if sch.v2 != "" {
			args[sch.v2] = ev.V2
		}
		if t.Tag != "" {
			args["request_id"] = t.Tag
		}
		if len(args) > 0 {
			ce.Args = args
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// Canonical returns the event stream as a sorted multiset of strings
// with every nondeterministic dimension removed: timestamps and
// durations always, the worker thread id (DOACROSS dynamic scheduling
// assigns iterations to threads nondeterministically), and the values
// the schema marks non-canonical (addresses produced by racing
// in-region allocations, schedule-dependent totals). Two runs that did
// the same simulated work produce equal canonical streams, which is
// what the parity tests assert.
func (t *Tracer) Canonical() []string {
	events := t.Events()
	out := make([]string, 0, len(events))
	for _, ev := range events {
		sch := schemaOf(ev.Name)
		if sch.noCanon {
			continue
		}
		v1, v2 := int64(0), int64(0)
		if sch.v1Canon {
			v1 = ev.V1
		}
		if sch.v2Canon {
			v2 = ev.V2
		}
		out = append(out, fmt.Sprintf("%s/%c loop=%d iter=%d label=%s v1=%d v2=%d",
			ev.Name, ev.Ph, ev.Loop, ev.Iter, ev.Label, v1, v2))
	}
	sort.Strings(out)
	return out
}
