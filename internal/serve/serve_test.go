package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// parSrc is a compute-heavy DOALL kernel: enough work per request to
// make concurrency tests meaningful, small enough to finish fast.
const parSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		int j;
		for (j = 0; j < 400; j++) { acc = acc + (long)i * j; }
		out[i] = acc;
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

// slowSrc runs long enough that every deadline in these tests fires
// first; cancellation is the only way it ends quickly.
const slowSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		long j;
		for (j = 0; j < 50000000; j++) { acc = acc + j; }
		out[i] = acc;
	}
	print_long(out[0]);
	print_char('\n');
	return 0;
}
`

// seqSrc has no parallel loops: the service must run it native.
const seqSrc = `
int main() {
	print_long(42);
	print_char('\n');
	return 0;
}
`

// hogSrc leaks allocations, so a small quota kills it with OOM.
const hogSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long *scratch = (long*)malloc(65536);
		scratch[0] = (long)i;
		out[i] = scratch[0];
	}
	print_long(out[5]);
	print_char('\n');
	return 0;
}
`

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Rate.RPS == 0 {
		cfg.Rate.RPS = -1 // tests opt in to rate limiting explicitly
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeOK(t *testing.T, resp *http.Response, body []byte) Response {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding response %s: %v", body, err)
	}
	return r
}

func decodeErr(t *testing.T, body []byte) Error {
	t.Helper()
	var e Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %s: %v", body, err)
	}
	return e
}

func TestRunEndpointBasics(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, body := postRun(t, ts.URL, Request{Source: parSrc})
	r := decodeOK(t, resp, body)
	if r.Output == "" || r.Ops == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	want := r.Output

	resp, body = postRun(t, ts.URL, Request{Source: parSrc})
	r = decodeOK(t, resp, body)
	if !r.CacheHit {
		t.Fatal("second identical request must hit the transform cache")
	}
	if r.Output != want {
		t.Fatalf("cached run output %q, first run %q", r.Output, want)
	}

	// A sequential program runs native, same pipeline.
	resp, body = postRun(t, ts.URL, Request{Source: seqSrc})
	if r := decodeOK(t, resp, body); r.Output != "42\n" {
		t.Fatalf("sequential output %q, want 42", r.Output)
	}
}

// TestEnginesAndSchedulersAgree: every engine and scheduler answers
// alike, and the retired "dynamic" scheduler is a bad request.
func TestEnginesAndSchedulersAgree(t *testing.T) {
	_, ts := testServer(t, Config{})
	var want string
	for _, engine := range []string{"compiled", "compiled-noopt"} {
		for _, sched := range []string{"stealing", "static"} {
			resp, body := postRun(t, ts.URL, Request{
				Source:  parSrc,
				Options: Options{Engine: engine, Sched: sched},
			})
			r := decodeOK(t, resp, body)
			if want == "" {
				want = r.Output
			} else if r.Output != want {
				t.Fatalf("%s/%s output %q, want %q", engine, sched, r.Output, want)
			}
		}
	}
	resp, body := postRun(t, ts.URL, Request{Source: parSrc, Options: Options{Sched: "dynamic"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sched dynamic: status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeBadReq {
		t.Fatalf("sched dynamic: code %s, want %s", e.Code, CodeBadReq)
	}
}

// TestEngineSelection: "engine" names an optimization level of the one
// engine. compiled-noopt must answer exactly like compiled (output and
// operation count); any other name, the retired tree walker included,
// is a bad request.
func TestEngineSelection(t *testing.T) {
	_, ts := testServer(t, Config{})
	var got [2]Response
	for i, engine := range []string{"compiled", "compiled-noopt"} {
		resp, body := postRun(t, ts.URL, Request{Source: parSrc, Options: Options{Engine: engine}})
		got[i] = decodeOK(t, resp, body)
	}
	if got[0].Output != got[1].Output || got[0].Ops != got[1].Ops {
		t.Fatalf("compiled-noopt answered %q (%d ops), compiled %q (%d ops)",
			got[1].Output, got[1].Ops, got[0].Output, got[0].Ops)
	}
	resp, body := postRun(t, ts.URL, Request{Source: parSrc, Options: Options{Engine: "tree"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("engine tree: status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeBadReq {
		t.Fatalf("engine tree: code %s, want %s", e.Code, CodeBadReq)
	}
}

func TestInputPrepended(t *testing.T) {
	_, ts := testServer(t, Config{})
	kernel := `
int main() {
	print_long((long)N * 2);
	print_char('\n');
	return 0;
}
`
	resp, body := postRun(t, ts.URL, Request{Source: kernel, Input: "int N = 21;"})
	if r := decodeOK(t, resp, body); r.Output != "42\n" {
		t.Fatalf("output %q, want 42", r.Output)
	}
	// A different input is a different cache key.
	resp, body = postRun(t, ts.URL, Request{Source: kernel, Input: "int N = 50;"})
	r := decodeOK(t, resp, body)
	if r.Output != "100\n" || r.CacheHit {
		t.Fatalf("second input: output %q, hit %v", r.Output, r.CacheHit)
	}
}

func TestStructuredErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   Code
	}{
		{"malformed JSON", `{"source": `, 400, CodeBadReq},
		{"no source", `{}`, 400, CodeBadReq},
		{"bad engine", `{"source":"int main(){return 0;}","options":{"engine":"jit"}}`, 400, CodeBadReq},
		{"bad threads", `{"source":"int main(){return 0;}","options":{"threads":9999}}`, 400, CodeBadReq},
		// In nanoseconds this timeout wraps to a negative duration.
		{"timeout overflow", `{"source":"int main(){return 0;}","options":{"timeout_ms":9223372036855}}`, 400, CodeBadReq},
		// Unknown fields are refused, not dropped: a dropped option
		// would run with its default (unguarded, no fault plan).
		{"misspelt option", `{"source":"int main(){return 0;}","options":{"gaurd":true}}`, 400, CodeBadReq},
		{"misspelt fault plan", `{"source":"int main(){return 0;}","options":{"guard":true,"fault_suspect_evry":2}}`, 400, CodeBadReq},
		{"retired fault plan", `{"source":"int main(){return 0;}","options":{"guard":true,"fault_suspect_every":2}}`, 400, CodeBadReq},
		{"misspelt top-level field", `{"source":"int main(){return 0;}","sourc":"int main(){return 1;}"}`, 400, CodeBadReq},
		{"trailing data", `{"source":"int main(){return 0;}"}}`, 400, CodeBadReq},
		{"parse error", `{"source":"int main( {"}`, 400, CodeCompile},
		{"sema error", `{"source":"int main() { return x; }"}`, 400, CodeCompile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, buf.Bytes())
			}
			if e := decodeErr(t, buf.Bytes()); e.Code != tc.code {
				t.Fatalf("code %q, want %q", e.Code, tc.code)
			}
		})
	}
}

func TestRuntimeFaultIsStructured(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postRun(t, ts.URL, Request{
		Source: `int main() { long *p = (long*)0; return (int)p[0]; }`,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeRuntime {
		t.Fatalf("code %q, want runtime_error", e.Code)
	}
}

// TestRunawayRecursionIsStructured sends a recursion through a function
// that reserves no simulated stack, which the simulated stack's
// overflow check never sees. The call-depth bound turns it into a
// structured runtime error before the Go stack overflows, a fatal error
// that no recover catches, and the server keeps serving.
func TestRunawayRecursionIsStructured(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postRun(t, ts.URL, Request{
		Source: `int g() { return g(); } int main() { return g(); }`,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeRuntime || !strings.Contains(e.Detail, "stack overflow (call depth") {
		t.Fatalf("error %+v, want a runtime_error naming the call depth", e)
	}
	resp, body = postRun(t, ts.URL, Request{Source: seqSrc})
	if r := decodeOK(t, resp, body); r.Output != "42\n" {
		t.Fatalf("next request: output %q", r.Output)
	}
}

func TestMemQuotaOOM(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postRun(t, ts.URL, Request{
		Source:  hogSrc,
		Options: Options{MemLimit: 256 << 10},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeOOM {
		t.Fatalf("code %q, want oom", e.Code)
	}
	// The arena goes back to the pool reset: the next request must be
	// unaffected.
	resp, body = postRun(t, ts.URL, Request{Source: seqSrc})
	decodeOK(t, resp, body)
}

// bigSrc needs 80 MiB, more than the default 64 MiB arena holds. The
// array is a global, so the dependence profiler shadows only the byte
// the program touches, not every byte a malloc would define.
const bigSrc = `
char big[83886080];
long out[8];

int main() {
	int i;
	big[83886079] = 1;
	parallel for (i = 0; i < 8; i++) {
		out[i] = (long)i * big[83886079];
	}
	long s = 0;
	for (i = 0; i < 8; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

// TestProfilingUsesArenaBytes: a cache miss profiles the program in
// ArenaBytes arenas, as large as the request's run gets, so a program
// within the server's memory limit is not refused with an OOM from a
// 64 MiB profiling arena.
func TestProfilingUsesArenaBytes(t *testing.T) {
	_, ts := testServer(t, Config{Limits: Limits{MaxMemLimit: 128 << 20}})
	for _, guard := range []bool{false, true} {
		resp, body := postRun(t, ts.URL, Request{
			Source:  bigSrc,
			Options: Options{Guard: guard, MemLimit: 100 << 20},
		})
		if r := decodeOK(t, resp, body); r.Output != "28\n" {
			t.Fatalf("guard=%v: output %q, want 28", guard, r.Output)
		}
	}
}

func TestTimeoutMidRun(t *testing.T) {
	_, ts := testServer(t, Config{})
	start := time.Now()
	resp, body := postRun(t, ts.URL, Request{
		Source:  slowSrc,
		Options: Options{TimeoutMs: 300},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeTimeout {
		t.Fatalf("code %q, want timeout", e.Code)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("timeout took %v to fire", el)
	}
}

func TestClientCancelMidRun(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	body, _ := json.Marshal(Request{Source: slowSrc, Options: Options{TimeoutMs: 20000}})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/run", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	time.Sleep(200 * time.Millisecond) // let it get into the region
	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("handler did not return after client cancel")
	}
	if rec.Code != 499 {
		t.Fatalf("status %d, want 499 (body %s)", rec.Code, rec.Body.Bytes())
	}
	if e := decodeErr(t, rec.Body.Bytes()); e.Code != CodeCancelled {
		t.Fatalf("code %q, want cancelled", e.Code)
	}
}

func TestGuardedRunWithFaultPlan(t *testing.T) {
	_, ts := testServer(t, Config{})
	probe, body := postRun(t, ts.URL, Request{Source: parSrc})
	want := decodeOK(t, probe, body).Output

	resp, body := postRun(t, ts.URL, Request{
		Source:  parSrc,
		Options: Options{Guard: true, FaultRollbackEvery: 1},
	})
	r := decodeOK(t, resp, body)
	if r.Output != want {
		t.Fatalf("guarded chaos output %q, want %q", r.Output, want)
	}
	if r.Recovered == 0 {
		t.Fatal("fault plan forced rollbacks but Recovered = 0")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	const clients = 10
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		ok, full  int
		badStatus []int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts.URL, Request{Source: parSrc})
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				full++
				if e := decodeErr(t, body); e.Code != CodeQueueFull {
					t.Errorf("429 code %q, want queue_full", e.Code)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				badStatus = append(badStatus, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if len(badStatus) > 0 {
		t.Fatalf("unexpected statuses %v", badStatus)
	}
	if ok == 0 || full == 0 {
		t.Fatalf("burst of %d on capacity 2: ok=%d full=%d — backpressure never engaged", clients, ok, full)
	}
}

func TestPerTenantRateLimit(t *testing.T) {
	_, ts := testServer(t, Config{Rate: RateLimit{RPS: 0.5, Burst: 1}})
	post := func(tenant string) (*http.Response, []byte) {
		body, _ := json.Marshal(Request{Source: seqSrc, Tenant: tenant})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	if resp, body := post("alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, body)
	}
	resp, body := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request in burst window: %d %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeRateLimit {
		t.Fatalf("code %q, want rate_limited", e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited response without Retry-After")
	}
	// A different tenant has its own bucket.
	if resp, body := post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant blocked: %d %s", resp.StatusCode, body)
	}
}

func TestDrainLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz %d", got)
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz %d", got)
	}

	// One slow request in flight, then drain: Drain must wait for it.
	started := make(chan struct{})
	finished := make(chan int, 1)
	go func() {
		close(started)
		resp, _ := postRun(t, ts.URL, Request{Source: slowSrc, Options: Options{TimeoutMs: 500}})
		finished <- resp.StatusCode
	}()
	<-started
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain's contract is server-side: no handler still in flight. The
	// client goroutine delivers its status a moment later, so assert the
	// counter directly and then wait for the response.
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("Drain returned with %d requests in flight", n)
	}
	if st := <-finished; st != http.StatusGatewayTimeout {
		t.Fatalf("in-flight request finished with %d, want its own 504", st)
	}

	if got := get("/readyz"); got != 503 {
		t.Fatalf("readyz after drain %d, want 503", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz after drain %d, want 200 (process is alive)", got)
	}
	resp, body := postRun(t, ts.URL, Request{Source: seqSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain run: %d %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeDraining {
		t.Fatalf("code %q, want draining", e.Code)
	}
}

func TestShedLadderEngagesUnderPressure(t *testing.T) {
	// Below the 75% threshold every request runs at full quality.
	l := NewLadder()
	for i := 0; i < 50; i++ {
		l.Observe(0.6)
	}
	if l.Level() != ShedNone {
		t.Fatalf("sustained 60%% occupancy at level %d, want %d", l.Level(), ShedNone)
	}
	// Sustained 80% occupancy engages sequential execution.
	for i := 0; i < 50; i++ {
		l.Observe(0.8)
	}
	if l.Level() != ShedSequential {
		t.Fatalf("sustained 80%% occupancy at level %d, want %d", l.Level(), ShedSequential)
	}
	// Pressure releases with hysteresis: a single low sample is not
	// enough, sustained idleness is.
	l.Observe(0.0)
	if l.Level() != ShedSequential {
		t.Fatal("one low sample released the level: hysteresis missing")
	}
	for i := 0; i < 50; i++ {
		l.Observe(0.0)
	}
	if l.Level() != ShedNone {
		t.Fatalf("sustained idle left level %d", l.Level())
	}
}

// TestBurstWithoutRPS: a configured burst survives the rate default,
// which fills in RPS alone (the flag's "0 = 2x rps" applies to Burst).
func TestBurstWithoutRPS(t *testing.T) {
	for _, tc := range []struct {
		cfg, want RateLimit
	}{
		{RateLimit{Burst: 10}, RateLimit{RPS: 50, Burst: 10}},
		{RateLimit{}, RateLimit{RPS: 50, Burst: 100}},
		{RateLimit{RPS: 5}, RateLimit{RPS: 5, Burst: 10}},
	} {
		if got := New(Config{Rate: tc.cfg}).limiter.cfg; got != tc.want {
			t.Errorf("Rate %+v: limiter %+v, want %+v", tc.cfg, got, tc.want)
		}
	}
}

func TestShedSequentialStillCorrect(t *testing.T) {
	// Force the ladder to max shed and verify a request still produces
	// the right answer, just sequentially.
	s, ts := testServer(t, Config{})
	for i := 0; i < 50; i++ {
		s.ladder.Observe(1.0)
	}
	resp, body := postRun(t, ts.URL, Request{Source: parSrc})
	r := decodeOK(t, resp, body)
	if r.ShedLevel != ShedSequential {
		t.Fatalf("shed level %d, want %d", r.ShedLevel, ShedSequential)
	}
	resp2, body2 := postRun(t, ts.URL, Request{Source: parSrc, Options: Options{Engine: "compiled-noopt"}})
	if r2 := decodeOK(t, resp2, body2); r2.Output != r.Output {
		t.Fatalf("shed output %q != %q", r.Output, r2.Output)
	}
}

func TestLimiterClock(t *testing.T) {
	l := NewLimiter(RateLimit{RPS: 10, Burst: 2})
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("t"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.Allow("t")
	if ok {
		t.Fatal("request past burst allowed")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms]", wait)
	}
	now = now.Add(wait)
	if ok, _ := l.Allow("t"); !ok {
		t.Fatal("request after the hinted wait still denied")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	var builds atomic32
	release := make(chan struct{})
	var wg sync.WaitGroup
	key := Key("src", false)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Get(key, func() *Entry {
				builds.add(1)
				<-release
				return &Entry{}
			})
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.load(); n != 1 {
		t.Fatalf("%d builds for one key under concurrency, want 1", n)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 15 {
		t.Fatalf("hits=%d misses=%d, want 15/1", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		c.Get(Key(fmt.Sprintf("src%d", i), false), func() *Entry { return &Entry{} })
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	// src0 was evicted; src1 and src2 remain (hit-check the survivors
	// first — a miss inserts and evicts).
	if _, hit := c.Get(Key("src1", false), func() *Entry { return &Entry{} }); !hit {
		t.Fatal("recent entry src1 was evicted")
	}
	if _, hit := c.Get(Key("src2", false), func() *Entry { return &Entry{} }); !hit {
		t.Fatal("recent entry src2 was evicted")
	}
	if _, hit := c.Get(Key("src0", false), func() *Entry { return &Entry{} }); hit {
		t.Fatal("oldest entry was not evicted")
	}
}

// atomic32 avoids importing sync/atomic just for a test counter helper
// name clash with the package's own atomics.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func TestNoGoroutineLeakAcrossMixedTraffic(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 4})
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	mixed := []Request{
		{Source: parSrc},
		{Source: seqSrc},
		{Source: hogSrc, Options: Options{MemLimit: 256 << 10}},
		{Source: slowSrc, Options: Options{TimeoutMs: 200}},
		{Source: parSrc, Options: Options{Guard: true}},
	}
	for round := 0; round < 3; round++ {
		for _, req := range mixed {
			wg.Add(1)
			go func(r Request) {
				defer wg.Done()
				resp, _ := postRun(t, ts.URL, r)
				resp.Body.Close()
			}(req)
		}
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Idle keep-alive connections hold goroutines on both sides;
		// they are connection reuse, not a leak — drop them before
		// comparing.
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines %d -> %d: leak", before, after)
	}
	if st := s.Snapshot(); st.Queued != 0 {
		t.Fatalf("queued %d after traffic drained", st.Queued)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	postRun(t, ts.URL, Request{Source: seqSrc})
	postRun(t, ts.URL, Request{Source: seqSrc})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 2 || st.OK < 2 {
		t.Fatalf("stats %+v missed the traffic", st)
	}
	if st.CacheHits < 1 {
		t.Fatalf("stats cache hits %d, want >= 1", st.CacheHits)
	}
}
