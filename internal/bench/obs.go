package bench

// Observability overhead: host time only — the simulated operation
// counts are identical with and without an Observer attached
// (observability must never change what the program does). Each
// workload's expanded program runs at obsThreads threads with no
// observer (the nil-check fast path) against three tiers: the standard
// observer (event tracer + metrics registry, per-region cost only —
// the leave-on tier), per-iteration trace spans on top (two clock
// reads per iteration, what `gdsx pipeline -trace` enables), and the
// hot-site profiler on top of that, which routes every sited memory
// access through the interpreter's hook path — a cost class shared
// with the guard monitor, not a fixed tax of tracing. A serve tier
// times request batches against a gdsxd handler with its whole
// observability layer off (serve.Config.DisableObs) and on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"gdsx"
	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

const (
	obsThreads = 4
	// obsGate bounds the leave-on suite's gate subset to the first
	// workloads.
	obsGate = 3
	// serveBatch is one serve-tier sample: sequential cached requests,
	// so the batch time is the request path rather than queueing.
	serveBatch = 24
)

// serveKernel is the serve tier's request: enough parallel compute to
// run the whole execution path, small enough for a batch to take well
// under a second. N arrives in the request's input preamble.
const serveKernel = `
int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		int j;
		for (j = 0; j < 3000; j++) { acc = acc + (long)i * j; }
		out[i] = acc;
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

func (h *Harness) obsSuites(quick bool) ([]Suite, error) {
	wls := workloads.All()
	if quick {
		wls = wls[:obsGate]
	}
	// A fresh Observer per run: reusing one would make later runs pay
	// for earlier runs' trace buffers.
	tiers := []struct {
		name     string
		gated    bool
		observer func() *gdsx.Observer
	}{
		{"obs-leave-on", true, func() *gdsx.Observer { return gdsx.NewObserver(false) }},
		{"obs-spans", false, func() *gdsx.Observer {
			o := gdsx.NewObserver(false)
			o.IterSpans = true
			return o
		}},
		{"obs-hot", false, func() *gdsx.Observer {
			o := gdsx.NewObserver(true)
			o.IterSpans = true
			return o
		}},
	}
	if quick {
		tiers = tiers[:1]
	}
	exps := make([]*gdsx.Program, len(wls))
	for i, w := range wls {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		topts := gdsx.TransformOptions{}
		if h.cfg.Scale != workloads.ProfileScale && h.cfg.Scale != workloads.Test {
			topts.ProfileSource = w.Source(workloads.ProfileScale)
		}
		tr, err := gdsx.Transform(prog, topts)
		if err != nil {
			return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
		}
		if exps[i], err = gdsx.Compile(w.Name+" (expanded).c", tr.Source); err != nil {
			return nil, fmt.Errorf("%s: compile expanded: %w", w.Name, err)
		}
	}
	var suites []Suite
	for _, tier := range tiers {
		s := Suite{Name: tier.name, Metric: "overhead (observed/unobserved wall)",
			Better: Lower, Threads: obsThreads, Gated: tier.gated}
		for i, w := range wls {
			run := func(o func() *gdsx.Observer) func(*gdsx.Memory) (Sample, error) {
				return func(m *gdsx.Memory) (Sample, error) {
					opts := gdsx.RunOptions{Threads: obsThreads, Memory: m}
					if o != nil {
						opts.Obs = o()
					}
					res, err := exps[i].Run(opts)
					return Sample{Output: res.Output}, err
				}
			}
			s.Cases = append(s.Cases, Case{Name: w.Name, Base: run(nil), Cand: run(tier.observer)})
		}
		suites = append(suites, s)
	}
	serveSuite, err := serveObsSuite()
	if err != nil {
		return nil, err
	}
	return append(suites, serveSuite), nil
}

// serveObsSuite times request batches against a DisableObs server and
// the default configuration (registry instruments on every request,
// head-sampled tracing at the default 1-in-8, trace retention).
func serveObsSuite() (Suite, error) {
	body, err := json.Marshal(serve.Request{Source: serveKernel, Input: "int N = 32;",
		Options: serve.Options{Threads: obsThreads}})
	if err != nil {
		return Suite{}, err
	}
	mkServer := func(disable bool) *httptest.Server {
		return httptest.NewServer(serve.New(serve.Config{
			MaxConcurrent: 2, QueueDepth: 64,
			Rate:       serve.RateLimit{RPS: -1},
			DisableObs: disable,
		}).Handler())
	}
	base, obsd := mkServer(true), mkServer(false)
	batch := func(ts *httptest.Server) func(*gdsx.Memory) (Sample, error) {
		return func(*gdsx.Memory) (Sample, error) {
			var r serve.Response
			for i := 0; i < serveBatch; i++ {
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					return Sample{}, err
				}
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return Sample{}, fmt.Errorf("request returned %d", resp.StatusCode)
				}
				if err != nil {
					return Sample{}, fmt.Errorf("decoding response: %w", err)
				}
			}
			return Sample{Output: r.Output}, nil
		}
	}
	return Suite{Name: "obs-serve", Metric: "overhead (default/DisableObs batch wall)",
		Better: Lower, Threads: obsThreads, Gated: true,
		Cases: []Case{{Name: "serve", Note: fmt.Sprintf("%d requests per batch", serveBatch),
			Base: batch(base), Cand: batch(obsd)}},
		Close: func() { base.Close(); obsd.Close() },
	}, nil
}
