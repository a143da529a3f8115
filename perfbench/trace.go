package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark: the call's layer name,
// the operation it belongs to (a build, a run or a request), the span
// that caused it, and its interval since the tracer started.
type span struct {
	name       string
	op         int
	parent     int // index into tracer.spans, -1 for an operation's root
	lane       int // Chrome track: the caller that made the call
	start, end time.Duration
}

// tracer keeps the benchmark's spans in memory until exit. A nil
// tracer is the untraced run: begin returns -1 and end does nothing,
// so the measured code is the same in both runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates a fresh operation id.
func (t *tracer) op() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index. parent is the index of the
// enclosing span (-1 for none); the span inherits the parent's
// operation and lane, or takes op and lane when it is a root.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op, lane = t.spans[parent].op, t.spans[parent].lane
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTotal is one row of the per-layer ledger.
type layerTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// ledger sums, per span name, the spans' durations and self times. A
// span's self time is its duration minus its children's; the children
// of one span never overlap, because each span's calls are sequential.
func (t *tracer) ledger() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{name: s.name}
			out[s.name] = lt
		}
		lt.count++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
	}
	return out
}

// printLedger writes the per-layer table: calls, total and self time
// per layer, largest self time first.
func printLedger(w io.Writer, l map[string]*layerTotal) {
	rows := make([]*layerTotal, 0, len(l))
	for _, lt := range l {
		rows = append(rows, lt)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-22s %8s %12s %12s %10s\n", "layer", "calls", "total_ms", "self_ms", "self/call")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f %10.3f\n", r.name, r.count,
			ms(r.total), ms(r.self), ms(r.self)/float64(r.count))
	}
}

// chromeEvent is the Chrome trace-event shape internal/obs also writes,
// which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
