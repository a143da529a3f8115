package serve

import "testing"

// FuzzServeRequest holds ParseRequest to its contract: on any byte
// sequence it returns exactly one of (request, error), never panics,
// and every accepted request's options are inside the server's limits
// — the properties the admission path relies on without re-checking.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"source":"int main(){return 0;}"}`))
	f.Add([]byte(`{"source":"int main(){return 0;}","input":"int N = 4;","tenant":"t"}`))
	f.Add([]byte(`{"source":"x","options":{"threads":8,"engine":"tree","sched":"static"}}`))
	f.Add([]byte(`{"source":"x","options":{"guard":true,"fault_rollback_every":2}}`))
	f.Add([]byte(`{"source":"x","options":{"mem_limit":-1}}`))
	f.Add([]byte(`{"source":"x","options":{"timeout_ms":999999999}}`))
	// time.Duration(9223372036855) * time.Millisecond wraps negative.
	f.Add([]byte(`{"source":"x","options":{"timeout_ms":9223372036855}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"source":123}`))
	f.Add([]byte(``))

	var lim Limits
	lim.fill()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data, Limits{})
		if (req == nil) == (err == nil) {
			t.Fatalf("want exactly one of request/error, got %v / %v", req, err)
		}
		if err != nil {
			if err.Code != CodeBadReq {
				t.Fatalf("rejection code %q, want bad_request", err.Code)
			}
			return
		}
		o := req.Options
		if req.Source == "" {
			t.Fatal("accepted a request without source")
		}
		if o.Threads < 1 || o.Threads > lim.MaxThreads {
			t.Fatalf("accepted threads %d", o.Threads)
		}
		if o.MemLimit < 1 || o.MemLimit > lim.MaxMemLimit {
			t.Fatalf("accepted mem_limit %d", o.MemLimit)
		}
		if o.MaxOps < 1 || o.MaxOps > lim.MaxOps {
			t.Fatalf("accepted max_ops %d", o.MaxOps)
		}
		if o.TimeoutMs < 1 || o.TimeoutMs > lim.MaxTimeout.Milliseconds() {
			t.Fatalf("accepted timeout_ms %d", o.TimeoutMs)
		}
		if o.FaultRollbackEvery > 0 && !o.Guard {
			t.Fatal("accepted a fault plan without guard")
		}
	})
}
