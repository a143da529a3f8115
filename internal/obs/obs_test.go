package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Every producer-facing entry point must be inert on nil receivers:
// that is the disabled fast path the interpreter relies on.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Emit(Event{Name: "region", Ph: 'B'})
	o.Counter("x").Add(3)
	o.Counter("x").Inc()
	o.Gauge("g").Set(7)
	o.Histogram("h").Observe(9)

	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}

	var hs *HotSites
	hs.Record(0, 1, 0, true, 8)
	if rep := hs.Report(); rep != nil {
		t.Fatalf("nil HotSites report: %v", rep)
	}

	var g *Geometry
	g.Note(0, 8, 0)
	if c := g.Copy(0); c != -1 {
		t.Fatalf("nil geometry copy = %d, want -1", c)
	}

	// Observer with all components nil.
	o2 := &Observer{}
	o2.Emit(Event{Name: "region"})
	o2.Counter("x").Inc()
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("interp.ops")
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
	if r.Counter("interp.ops") != c {
		t.Fatal("counter not interned")
	}

	g := r.Gauge("mem.live")
	g.Set(10)
	g.Set(4)
	if g.Value() != 4 || g.Max() != 10 {
		t.Fatalf("gauge value=%d max=%d, want 4/10", g.Value(), g.Max())
	}

	h := r.Histogram("bytes")
	for _, v := range []int64{1, 2, 3, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 1 || h.Max() != 1<<40 {
		t.Fatalf("hist count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.Sum() != 1+2+3+100+(1<<40) {
		t.Fatalf("hist sum = %d", h.Sum())
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}

	snap := r.Snapshot()
	if snap.Counters["interp.ops"] != 6 {
		t.Fatalf("snapshot counter = %d", snap.Counters["interp.ops"])
	}
	if snap.Gauges["mem.live"].Max != 10 {
		t.Fatalf("snapshot gauge max = %d", snap.Gauges["mem.live"].Max)
	}
	if snap.Histograms["bytes"].Count != 5 {
		t.Fatalf("snapshot hist count = %d", snap.Histograms["bytes"].Count)
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter", "interp.ops", "gauge", "mem.live", "hist", "bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v int64
		b int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 62, 62}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.b {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Max(); got != 999 {
		t.Fatalf("gauge max = %d, want 999", got)
	}
}

func TestTracerLimitAndBatch(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Name: "region", Ph: 'B', TS: int64(i)})
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}

	tr = NewTracer(4)
	batch := make([]Event, 6)
	for i := range batch {
		batch[i] = Event{Name: "iter", Ph: 'X', TS: int64(i)}
	}
	tr.EmitBatch(batch)
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("batch len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}
	tr.EmitBatch(nil)
}

func TestWriteChromeSchema(t *testing.T) {
	tr := NewTracer(0)
	tr.Emit(Event{Name: "region", Ph: 'B', TS: 1000, Tid: 0, Loop: 2, Iter: -1, V1: 4})
	tr.Emit(Event{Name: "iter", Ph: 'X', TS: 2000, Dur: 500, Tid: 1, Loop: 2, Iter: 7})
	tr.Emit(Event{Name: "guard-verdict", Ph: 'i', TS: 2500, Tid: 0, Loop: 2, Iter: -1, Label: "clean", V1: 12})
	tr.Emit(Event{Name: "region", Ph: 'E', TS: 3000, Tid: 0, Loop: 2, Iter: -1})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	sawIter := false
	for _, ev := range parsed.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		ph := ev["ph"].(string)
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("event missing ts: %v", ev)
			}
		}
		if ev["name"] == "iter" {
			sawIter = true
			args := ev["args"].(map[string]any)
			if args["iter"].(float64) != 7 || args["loop"].(float64) != 2 {
				t.Fatalf("iter args wrong: %v", args)
			}
			if ev["dur"].(float64) != 0.5 { // 500ns = 0.5µs
				t.Fatalf("dur = %v, want 0.5", ev["dur"])
			}
		}
	}
	if !sawIter {
		t.Fatal("iter event missing from export")
	}
}

// Canonical must erase timestamps, durations, tids and
// address-valued fields, but keep everything else.
func TestCanonicalErasesNondeterminism(t *testing.T) {
	mk := func(ts, dur int64, tid int, base int64) *Tracer {
		tr := NewTracer(0)
		tr.Emit(Event{Name: "region", Ph: 'B', TS: ts, Tid: tid, Loop: 1, Iter: -1, V1: 2})
		tr.Emit(Event{Name: "iter", Ph: 'X', TS: ts + 1, Dur: dur, Tid: tid ^ 1, Loop: 1, Iter: 3})
		tr.Emit(Event{Name: "expand", Ph: 'i', TS: ts + 2, Tid: tid, Iter: -1, Label: "bonded", V1: base, V2: 64})
		tr.Emit(Event{Name: "region", Ph: 'E', TS: ts + 9, Tid: tid, Loop: 1, Iter: -1})
		return tr
	}
	a := mk(100, 5, 0, 0x1000)
	b := mk(900, 50, 1, 0x8000)
	if !reflect.DeepEqual(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical streams differ:\n%v\n%v", a.Canonical(), b.Canonical())
	}
	// But a real difference must show.
	c := mk(100, 5, 0, 0x1000)
	c.Emit(Event{Name: "rollback", Ph: 'i', Loop: 1, Iter: -1, Label: "violation"})
	if reflect.DeepEqual(a.Canonical(), c.Canonical()) {
		t.Fatal("canonical streams equal despite extra rollback event")
	}
}

func TestGeometryInterleaved(t *testing.T) {
	// 2 threads, interleaved int64 elements: element i of copy t at
	// base + (i*2 + t)*8.
	g := NewGeometry(2)
	g.Note(1000, 32, 8) // 4 elements per copy, total 64 bytes
	cases := []struct {
		addr int64
		cp   int
	}{
		{1000, 0}, {1008, 1}, {1016, 0}, {1024, 1}, {1056, 1},
		{999, -1}, {1064, -1},
	}
	for _, c := range cases {
		if got := g.Copy(c.addr); got != c.cp {
			t.Errorf("Copy(%d) = %d, want %d", c.addr, got, c.cp)
		}
	}
}

func TestGeometryBonded(t *testing.T) {
	// 2 threads, bonded: copy t spans [base+t*span, base+(t+1)*span).
	g := NewGeometry(2)
	g.Note(2000, 40, 0)
	cases := []struct {
		addr int64
		cp   int
	}{
		{2000, 0}, {2039, 0}, {2040, 1}, {2079, 1}, {2080, -1}, {1999, -1},
	}
	for _, c := range cases {
		if got := g.Copy(c.addr); got != c.cp {
			t.Errorf("Copy(%d) = %d, want %d", c.addr, got, c.cp)
		}
	}
}

func TestGeometryReuse(t *testing.T) {
	g := NewGeometry(2)
	g.Note(1000, 32, 8)
	// Address range reused by a later allocation: the stale note must
	// be dropped in favor of the new one.
	g.Note(1000, 32, 0)
	if got := g.Copy(1008); got != 0 {
		t.Fatalf("after re-note, Copy(1008) = %d, want 0 (bonded)", got)
	}
	// A second, disjoint structure coexists.
	g.Note(5000, 16, 8)
	if got := g.Copy(5008); got != 1 {
		t.Fatalf("Copy(5008) = %d, want 1", got)
	}
	if got := g.Copy(1040); got != 1 {
		t.Fatalf("Copy(1040) = %d, want 1 (bonded copy 1)", got)
	}
}

func TestHotSites(t *testing.T) {
	h := NewHotSites()
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Record(tid, 7, tid, i%2 == 0, 8)
				h.Record(tid, 3, -1, false, 4)
			}
		}(tid)
	}
	wg.Wait()

	rep := h.Report()
	if len(rep) != 5 { // site 7 x 4 copies + site 3
		t.Fatalf("got %d buckets, want 5: %+v", len(rep), rep)
	}
	if rep[0].Site != 3 || rep[0].Loads != 400 || rep[0].Copy != -1 {
		t.Fatalf("hottest bucket wrong: %+v", rep[0])
	}
	for _, r := range rep[1:] {
		if r.Site != 7 || r.Loads+r.Stores != 100 || r.Bytes != 800 {
			t.Fatalf("site-7 bucket wrong: %+v", r)
		}
	}
	if top := h.Top(2); len(top) != 2 {
		t.Fatalf("Top(2) len = %d", len(top))
	}

	var buf bytes.Buffer
	err := h.Folded(&buf, func(site int) []string {
		return []string{"main", fmt.Sprintf("expr@%d", site)}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "main;expr@3 400\n") {
		t.Fatalf("folded output missing site 3 line:\n%s", out)
	}
	if !strings.Contains(out, "main;expr@7;copy 0 100\n") {
		t.Fatalf("folded output missing per-copy line:\n%s", out)
	}
	// Fallback frames.
	buf.Reset()
	if err := h.Folded(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "site#3 400\n") {
		t.Fatalf("folded fallback missing:\n%s", buf.String())
	}
}
