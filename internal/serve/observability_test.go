package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe log sink: the server writes log lines
// from handler goroutines while the test polls for them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func fetch(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	code, body, err := fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

// waitFor polls cond until it holds or the deadline passes. The
// request's observability settles in a deferred finishRequest that can
// run after the client has already received the response, so trace and
// log assertions poll briefly instead of racing it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRequestFollowEndToEnd is the acceptance walk: one request sent
// with an X-Request-ID is followable through the structured log, the
// retained Chrome trace (service spans plus runtime region events
// stamped with the ID), and the per-tenant counters on /metrics.
func TestRequestFollowEndToEnd(t *testing.T) {
	logbuf := &syncBuffer{}
	s := New(Config{Rate: RateLimit{RPS: -1}, RequestLog: logbuf})
	ts := newTS(t, s)

	const reqID = "e2e-req-001"
	body, err := json.Marshal(Request{Source: parSrc})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", reqID)
	hreq.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response X-Request-ID = %q, want %q", got, reqID)
	}

	// 1. The structured log line carries the ID and the request facts.
	waitFor(t, "request log line", func() bool {
		return strings.Contains(logbuf.String(), reqID)
	})
	var line map[string]any
	logged := strings.TrimSpace(logbuf.String())
	if err := json.Unmarshal([]byte(strings.Split(logged, "\n")[0]), &line); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", logged, err)
	}
	if line["id"] != reqID || line["tenant"] != "acme" || line["status"].(float64) != 200 {
		t.Fatalf("log line wrong: %v", line)
	}
	if line["traced"] != true {
		t.Fatalf("explicit X-Request-ID not traced: %v", line)
	}
	for _, key := range []string{"time", "shed_level", "cache_hit", "queue_ms", "exec_ms", "total_ms"} {
		if _, ok := line[key]; !ok {
			t.Fatalf("log line missing %q: %v", key, line)
		}
	}

	// 2. The retained trace is a valid Chrome span tree: service spans
	// for every request phase, runtime region events, all stamped with
	// the request ID.
	waitFor(t, "trace retention", func() bool {
		code, _ := getBody(t, ts.URL+"/debug/traces/"+reqID)
		return code == http.StatusOK
	})
	_, traceBody := getBody(t, ts.URL+"/debug/traces/"+reqID)
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(traceBody, &chrome); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		seen[ev.Name] = true
		if got := ev.Args["request_id"]; got != reqID {
			t.Fatalf("event %q request_id = %v, want %q", ev.Name, got, reqID)
		}
	}
	for _, span := range []string{"queue-wait", "cache-lookup", "build", "execute", "region"} {
		if !seen[span] {
			t.Fatalf("trace missing %q (saw %v)", span, seen)
		}
	}

	// 3. The trace index lists it.
	_, idxBody := getBody(t, ts.URL+"/debug/traces")
	var idx []map[string]any
	if err := json.Unmarshal(idxBody, &idx); err != nil {
		t.Fatalf("trace index not JSON: %v", err)
	}
	found := false
	for _, e := range idx {
		if e["id"] == reqID {
			found = true
			if e["tenant"] != "acme" {
				t.Fatalf("index entry wrong: %v", e)
			}
		}
	}
	if !found {
		t.Fatalf("trace index missing %s: %s", reqID, idxBody)
	}

	// 4. Per-tenant counters for the request are on /metrics.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gdsx_serve_tenant_requests_total{tenant="acme"} 1`,
		`gdsx_serve_tenant_ok_total{tenant="acme"} 1`,
		`gdsx_serve_tenant_regions_total{tenant="acme"}`,
		"gdsx_serve_requests_total 1",
		"gdsx_serve_latency_us_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

func newTS(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestStatsMigrationEquivalence drives mixed traffic and asserts the
// registry-backed /stats keeps the pre-migration JSON contract: same
// field names, and values that match an independent tally of the
// traffic.
func TestStatsMigrationEquivalence(t *testing.T) {
	_, ts := testServer(t, Config{})
	// 3 successes (1 build + 2 cache hits), 2 compile errors, 1 bad
	// request.
	for i := 0; i < 3; i++ {
		resp, body := postRun(t, ts.URL, Request{Source: seqSrc})
		decodeOK(t, resp, body)
	}
	for i := 0; i < 2; i++ {
		resp, body := postRun(t, ts.URL, Request{Source: "int main( {"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("compile error status %d, body %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	code, raw := getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	// The migration must not rename or drop any field.
	var asMap map[string]any
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "ok", "errors", "panics", "shed_level", "pressure",
		"runs_by_level", "cache_hits", "cache_misses", "cache_entries",
		"queued", "draining",
	} {
		if _, ok := asMap[key]; !ok {
			t.Fatalf("/stats missing field %q: %s", key, raw)
		}
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 6 {
		t.Fatalf("requests = %d, want 6", st.Requests)
	}
	if st.OK != 3 {
		t.Fatalf("ok = %d, want 3", st.OK)
	}
	if st.Errors["compile_error"] != 2 || st.Errors["bad_request"] != 1 {
		t.Fatalf("errors = %v, want compile_error:2 bad_request:1", st.Errors)
	}
	if st.Panics != 0 || st.Draining {
		t.Fatalf("unexpected panics/draining: %+v", st)
	}
	if len(st.RunsByLevel) != shedMax+1 {
		t.Fatalf("runs_by_level has %d levels, want %d", len(st.RunsByLevel), shedMax+1)
	}
	var runs int64
	for _, n := range st.RunsByLevel {
		runs += n
	}
	// Every request that reached execute (successes + compile errors).
	if runs != 5 {
		t.Fatalf("runs_by_level sums to %d, want 5", runs)
	}
	if st.CacheHits < 2 || st.CacheMisses < 1 {
		t.Fatalf("cache hits/misses = %d/%d", st.CacheHits, st.CacheMisses)
	}
}

// promLineRE is the exposition text format's line shape: a metric name
// with optional labels, one space, a number.
var promLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestConcurrentTraceExport hammers /run from 8 clients (unique
// X-Request-IDs, each naming its request's trace) while scrapers pull
// /metrics and /debug/traces concurrently — under -race this is the
// torn-snapshot check; the assertions verify parseable exposition
// output and valid Chrome traces with request IDs on runtime region
// events throughout.
func TestConcurrentTraceExport(t *testing.T) {
	s := New(Config{Rate: RateLimit{RPS: -1}, MaxConcurrent: 4, QueueDepth: 64})
	ts := newTS(t, s)

	const clients, perClient = 8, 4
	var load, scrapers sync.WaitGroup
	errs := make(chan error, clients+2)
	stop := make(chan struct{})

	for c := 0; c < clients; c++ {
		load.Add(1)
		go func(c int) {
			defer load.Done()
			for i := 0; i < perClient; i++ {
				id := fmt.Sprintf("hammer-%d-%d", c, i)
				body, _ := json.Marshal(Request{Source: parSrc})
				hreq, _ := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
				hreq.Header.Set("X-Request-ID", id)
				hreq.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", c%3))
				resp, err := http.DefaultClient.Do(hreq)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("request %s: status %d", id, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	// Scrapers run until the load finishes, validating every scrape.
	scrape := func(validate func() error) {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := validate(); err != nil {
				errs <- err
				return
			}
		}
	}
	scrapers.Add(2)
	go scrape(func() error {
		code, body, err := fetch(ts.URL + "/metrics")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("/metrics status %d", code)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if strings.HasPrefix(line, "#") || line == "" {
				continue
			}
			if !promLineRE.MatchString(line) {
				return fmt.Errorf("malformed exposition line %q", line)
			}
		}
		return nil
	})
	go scrape(func() error {
		code, body, err := fetch(ts.URL + "/debug/traces")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("/debug/traces status %d", code)
		}
		var idx []struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &idx); err != nil {
			return fmt.Errorf("trace index: %w", err)
		}
		for _, e := range idx[:min(len(idx), 2)] {
			code, tb, err := fetch(ts.URL + "/debug/traces/" + e.ID)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				// Retention may rotate the trace out between the index
				// read and the fetch; that is not a torn export.
				continue
			}
			var chrome struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]any `json:"args"`
					Ph   string         `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(tb, &chrome); err != nil {
				return fmt.Errorf("trace %s not Chrome JSON: %w", e.ID, err)
			}
			for _, ev := range chrome.TraceEvents {
				if ev.Ph == "M" {
					continue
				}
				if ev.Args["request_id"] != e.ID {
					return fmt.Errorf("trace %s: event %q carries request_id %v",
						e.ID, ev.Name, ev.Args["request_id"])
				}
			}
		}
		return nil
	})

	done := make(chan struct{})
	go func() {
		load.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		close(stop)
		scrapers.Wait()
		t.Fatal(err)
	case <-time.After(120 * time.Second):
		close(stop)
		scrapers.Wait()
		t.Fatal("load did not finish in time")
	}
	close(stop)
	scrapers.Wait()

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the dust settles the store holds retained hammer traces.
	waitFor(t, "retained traces", func() bool {
		_, body := getBody(t, ts.URL+"/debug/traces")
		var idx []struct {
			ID string `json:"id"`
		}
		return json.Unmarshal(body, &idx) == nil && len(idx) > 0
	})
}

// TestDisableObs verifies the baseline configuration the serve
// obs-overhead tier measures: no request IDs, observability endpoints
// 404, /run untouched.
func TestDisableObs(t *testing.T) {
	_, ts := testServer(t, Config{DisableObs: true})
	resp, body := postRun(t, ts.URL, Request{Source: seqSrc})
	r := decodeOK(t, resp, body)
	if r.Output != "42\n" {
		t.Fatalf("output %q", r.Output)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "" {
		t.Fatalf("DisableObs still assigns request IDs: %q", got)
	}
	for _, path := range []string{"/metrics", "/debug/traces", "/debug/traces/x"} {
		code, _ := getBody(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, code)
		}
	}
	// /stats stays servable (live fields only).
	code, _ := getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
}

// TestEveryRequestTraced: a request sent without an X-Request-ID is
// traced too. Its generated ID names a retained trace that holds the
// execute span and the runtime's region events, and its log line
// reads traced:true.
func TestEveryRequestTraced(t *testing.T) {
	logbuf := &syncBuffer{}
	s := New(Config{Rate: RateLimit{RPS: -1}, RequestLog: logbuf})
	ts := newTS(t, s)
	resp, body := postRun(t, ts.URL, Request{Source: parSrc})
	decodeOK(t, resp, body)
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no generated request ID")
	}
	waitFor(t, "log line", func() bool { return strings.Contains(logbuf.String(), id) })
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(logbuf.String())), &line); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", logbuf.String(), err)
	}
	if line["id"] != id || line["traced"] != true {
		t.Fatalf("log line for %s not traced: %v", id, line)
	}
	waitFor(t, "retained trace", func() bool {
		code, _ := getBody(t, ts.URL+"/debug/traces/"+id)
		return code == http.StatusOK
	})
	_, trace := getBody(t, ts.URL+"/debug/traces/"+id)
	for _, want := range []string{`"execute"`, `"region"`} {
		if !strings.Contains(string(trace), want) {
			t.Fatalf("trace %s lacks %s events: %s", id, want, trace)
		}
	}
}

// TestRefusalsNotRetained: an admission refusal is an error to the
// client, but its trace is offered to neither retention pool, so a
// rate-limited request's ID is not retrievable and not in the index.
// finishRequest runs before the handler returns, and the small error
// body is only flushed after that, so the refusal has settled once its
// response arrives.
func TestRefusalsNotRetained(t *testing.T) {
	_, ts := testServer(t, Config{Rate: RateLimit{RPS: 0.5, Burst: 1}})
	post := func(id string) int {
		body, _ := json.Marshal(Request{Source: seqSrc, Tenant: "alice"})
		hreq, _ := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
		hreq.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("admitted"); code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if code := post("refused"); code != http.StatusTooManyRequests {
		t.Fatalf("second request in the burst window: status %d, want 429", code)
	}
	waitFor(t, "admitted trace", func() bool {
		code, _ := getBody(t, ts.URL+"/debug/traces/admitted")
		return code == http.StatusOK
	})
	if code, body := getBody(t, ts.URL+"/debug/traces/refused"); code != http.StatusNotFound {
		t.Fatalf("rate-limited request's trace served with status %d: %s", code, body)
	}
	_, idx := getBody(t, ts.URL+"/debug/traces")
	if strings.Contains(string(idx), `"refused"`) {
		t.Fatalf("trace index lists the rate-limited request: %s", idx)
	}
}

// metricTotal sums every series of a counter family in a Prometheus
// exposition.
func metricTotal(t *testing.T, exposition []byte, family string) int64 {
	t.Helper()
	var total int64
	found := false
	for _, line := range strings.Split(string(exposition), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || (name != family && !strings.HasPrefix(name, family+"{")) {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		total, found = total+n, true
	}
	if !found {
		t.Fatalf("/metrics has no %s series:\n%s", family, exposition)
	}
	return total
}

// TestRuntimeMetricsCoverEveryRequest: the runtime's region counter,
// fed by each request's observer, counts the same regions as the
// per-tenant hook that every run carries — so the runtime families on
// /metrics cover every request, not a sample of them.
func TestRuntimeMetricsCoverEveryRequest(t *testing.T) {
	_, ts := testServer(t, Config{})
	const requests = 16
	for i := 0; i < requests; i++ {
		resp, body := postRun(t, ts.URL, Request{Source: parSrc})
		decodeOK(t, resp, body)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	tenant := metricTotal(t, metrics, "gdsx_serve_tenant_regions_total")
	runtime := metricTotal(t, metrics, "gdsx_interp_regions_parallel_total")
	if tenant != requests || runtime != tenant {
		t.Fatalf("after %d one-region requests: gdsx_interp_regions_parallel_total %d, gdsx_serve_tenant_regions_total %d",
			requests, runtime, tenant)
	}
}

// TestInvalidRequestIDRejected: a hostile X-Request-ID is replaced,
// not echoed.
func TestInvalidRequestIDRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(Request{Source: seqSrc})
	hreq, _ := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
	// A quote would break out of a label value; over-long IDs bloat the
	// store. Both must be replaced by a generated ID. (A newline-bearing
	// header never leaves Go's http client, so it can't be tested here.)
	evil := `bad "id` + strings.Repeat("a", 130)
	hreq.Header.Set("X-Request-ID", evil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == evil || got == "" {
		t.Fatalf("hostile ID handling wrong: %q", got)
	}
}
