package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i&1023) + 1)
	}
}

func TestLabeledParseName(t *testing.T) {
	if got := Labeled("serve.requests"); got != "serve.requests" {
		t.Fatalf("Labeled no-kv = %q", got)
	}
	name := Labeled("serve.errors", "code", "timeout", "tenant", "t1")
	if name != "serve.errors|code=timeout|tenant=t1" {
		t.Fatalf("Labeled = %q", name)
	}
	base, labels := ParseName(name)
	if base != "serve.errors" || len(labels) != 2 ||
		labels[0] != [2]string{"code", "timeout"} || labels[1] != [2]string{"tenant", "t1"} {
		t.Fatalf("ParseName = %q %v", base, labels)
	}
	base, labels = ParseName("plain")
	if base != "plain" || labels != nil {
		t.Fatalf("ParseName(plain) = %q %v", base, labels)
	}
	// Malformed segments are dropped, not rendered.
	base, labels = ParseName("x|nokv|k=v")
	if base != "x" || len(labels) != 1 || labels[0] != [2]string{"k", "v"} {
		t.Fatalf("ParseName(malformed) = %q %v", base, labels)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(10)
	r.Counter(Labeled("serve.errors", "code", "timeout")).Add(2)
	r.Counter(Labeled("serve.errors", "code", "oom")).Add(1)
	r.Gauge("serve.shed_level").Set(2)
	h := r.Histogram("serve.latency_us")
	h.Observe(3)  // bucket le=4
	h.Observe(3)  // bucket le=4
	h.Observe(12) // bucket le=16

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "gdsx"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE gdsx_serve_requests_total counter",
		"gdsx_serve_requests_total 10",
		"# TYPE gdsx_serve_errors_total counter",
		`gdsx_serve_errors_total{code="oom"} 1`,
		`gdsx_serve_errors_total{code="timeout"} 2`,
		"# TYPE gdsx_serve_shed_level gauge",
		"gdsx_serve_shed_level 2",
		"gdsx_serve_shed_level_max 2",
		"# TYPE gdsx_serve_latency_us histogram",
		`gdsx_serve_latency_us_bucket{le="4"} 2`,
		`gdsx_serve_latency_us_bucket{le="16"} 3`,
		`gdsx_serve_latency_us_bucket{le="+Inf"} 3`,
		"gdsx_serve_latency_us_sum 18",
		"gdsx_serve_latency_us_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and ascending by le.
	i4 := strings.Index(out, `le="4"`)
	i16 := strings.Index(out, `le="16"`)
	iInf := strings.Index(out, `le="+Inf"`)
	if !(i4 < i16 && i16 < iInf) {
		t.Fatalf("bucket order wrong (le=4 at %d, le=16 at %d, +Inf at %d):\n%s", i4, i16, iInf, out)
	}

	// One TYPE header per family, even with multiple labelled series.
	if n := strings.Count(out, "# TYPE gdsx_serve_errors_total counter"); n != 1 {
		t.Fatalf("errors family has %d TYPE headers, want 1:\n%s", n, out)
	}

	// Every non-comment line must match the exposition line shape.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	// Nil registry renders nothing and does not panic.
	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WritePrometheus(&buf, "gdsx"); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, buf.String())
	}
}

func TestPromEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled("serve.tenant.requests", "tenant", `we"ird\te`+"\n"+`nant`)).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "gdsx"); err != nil {
		t.Fatal(err)
	}
	want := `gdsx_serve_tenant_requests_total{tenant="we\"ird\\te\nnant"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, buf.String())
	}
}

func TestTraceStoreRetention(t *testing.T) {
	mk := func(id string, dur time.Duration, isErr bool) *RetainedTrace {
		tr := NewTracer(16)
		tr.Tag = id
		tr.Emit(Event{Name: "execute", Ph: 'X', Dur: int64(dur), Tid: ServiceTid, Iter: -1})
		status, code := 200, ""
		if isErr {
			status, code = 500, "runtime_error"
		}
		return &RetainedTrace{
			ID: id, Tenant: "t", Start: time.Unix(0, 0), Dur: dur,
			Status: status, Code: code, Error: isErr, Tracer: tr,
		}
	}

	ts := NewTraceStore(2)
	ts.Offer(mk("a", 10*time.Millisecond, false))
	ts.Offer(mk("b", 30*time.Millisecond, false))
	// Pool full: "c" is slower than the fastest retained ("a") and
	// replaces it; "d" is faster than everything retained and is dropped.
	ts.Offer(mk("c", 20*time.Millisecond, false))
	ts.Offer(mk("d", 1*time.Millisecond, false))
	if ts.Get("a") != nil || ts.Get("d") != nil {
		t.Fatal("evicted/rejected traces still retrievable")
	}
	if ts.Get("b") == nil || ts.Get("c") == nil {
		t.Fatal("slowest traces not retained")
	}

	// Errors retain unconditionally, FIFO-bounded.
	ts.Offer(mk("e1", 1*time.Millisecond, true))
	ts.Offer(mk("e2", 1*time.Millisecond, true))
	ts.Offer(mk("e3", 1*time.Millisecond, true))
	if ts.Get("e1") != nil {
		t.Fatal("oldest error not evicted")
	}
	if ts.Get("e2") == nil || ts.Get("e3") == nil {
		t.Fatal("recent errors not retained")
	}

	// Error eviction must not disturb the slow pool.
	if ts.Get("b") == nil || ts.Get("c") == nil {
		t.Fatal("slow pool disturbed by error retention")
	}

	// Duplicate IDs keep the first retained trace.
	first := ts.Get("b")
	ts.Offer(mk("b", 99*time.Millisecond, false))
	if ts.Get("b") != first {
		t.Fatal("duplicate ID replaced original trace")
	}

	// Index: slowest-successful first, then errors newest-first.
	list := ts.List()
	if len(list) != 4 {
		t.Fatalf("List len = %d, want 4", len(list))
	}
	if list[0].ID != "b" || list[1].ID != "c" || list[2].ID != "e3" || list[3].ID != "e2" {
		t.Fatalf("List order wrong: %+v", list)
	}
	if list[2].Code != "runtime_error" || !list[2].Error || list[2].Status != 500 {
		t.Fatalf("error summary wrong: %+v", list[2])
	}
	if _, err := json.Marshal(list); err != nil {
		t.Fatalf("summaries not JSON-marshalable: %v", err)
	}

	// Nil-safety.
	var nilStore *TraceStore
	nilStore.Offer(mk("x", time.Millisecond, false))
	if nilStore.Get("x") != nil || nilStore.List() != nil {
		t.Fatal("nil store not inert")
	}
	ts.Offer(nil)
	ts.Offer(&RetainedTrace{ID: "no-tracer"})
}

func TestTracerTagInChromeExport(t *testing.T) {
	tr := NewTracer(0)
	tr.Tag = "req-42"
	tr.Emit(Event{Name: "queue-wait", Ph: 'X', TS: 0, Dur: 1000, Tid: ServiceTid, Iter: -1})
	tr.Emit(Event{Name: "region", Ph: 'B', TS: 2000, Tid: 0, Loop: 1, Iter: -1, V1: 4})
	tr.Emit(Event{Name: "region", Ph: 'E', TS: 5000, Tid: 0, Loop: 1, Iter: -1})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	sawService, sawRegion := false, false
	for _, ev := range parsed.TraceEvents {
		name := ev["name"].(string)
		if ev["ph"] == "M" {
			if name == "thread_name" && ev["tid"].(float64) == ServiceTid {
				if got := ev["args"].(map[string]any)["name"]; got != "gdsxd-request" {
					t.Fatalf("service track name = %v", got)
				}
				sawService = true
			}
			continue
		}
		args, _ := ev["args"].(map[string]any)
		if args["request_id"] != "req-42" {
			t.Fatalf("event %q missing request_id: %v", name, ev)
		}
		if name == "region" {
			sawRegion = true
		}
	}
	if !sawService || !sawRegion {
		t.Fatalf("export missing tracks: service=%v region=%v", sawService, sawRegion)
	}

	// Service spans stay out of the canonical stream.
	for _, line := range tr.Canonical() {
		if strings.HasPrefix(line, "queue-wait") {
			t.Fatalf("service span leaked into canonical stream: %q", line)
		}
	}
}
