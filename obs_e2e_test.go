package gdsx

// End-to-end validation of the acceptance path: a guarded, recovering
// run of the multi-region adversarial workload must export a Chrome
// trace-event JSON that (a) parses, (b) satisfies the trace-event
// schema Perfetto loads, and (c) contains the region, guard-verdict
// and rollback events the run actually went through. The metrics and
// hot-site surfaces are exercised on the same run.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gdsx/internal/workloads"
)

// chromeTrace mirrors the Chrome trace-event JSON object format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestObsTraceEndToEnd(t *testing.T) {
	a := workloads.AdversarialMultiRegion()
	native, err := Compile(a.Name+".c", a.Expose(workloads.Test))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := Transform(native, TransformOptions{
		Guard:         true,
		ProfileSource: a.Profile(workloads.Test),
	})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	o := NewObserver(true) // hot profiler on: exercise every surface
	o.IterSpans = true
	// Static scheduling: which rule the violating region trips first
	// depends on the iteration-to-thread mapping, and this test asserts
	// the exact carried-flow label the static map produces.
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
		Threads: 4, Recover: &RecoverySpec{}, Obs: o, Sched: SchedStatic,
	})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res.FellBack || res.Recovered != 1 {
		t.Fatalf("want exactly one recovered region, got FellBack=%v Recovered=%d",
			res.FellBack, res.Recovered)
	}

	// (a) the export parses as trace-event JSON.
	var buf bytes.Buffer
	if err := o.Trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	// (b) every event satisfies the schema: a name, a known phase, and
	// the required ts/pid/tid fields (metadata events carry ph "M").
	phases := map[string]bool{"B": true, "E": true, "X": true, "i": true, "M": true}
	counts := map[string]int{}
	for i, ev := range trace.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name: %+v", i, ev)
		}
		if !phases[ev.Ph] {
			t.Fatalf("event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d (%s) lacks ts/pid/tid: %s", i, ev.Name, buf.Bytes()[:200])
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("event %d (%s) has negative duration", i, ev.Name)
		}
		counts[ev.Name]++
	}

	// (c) the events the run must have gone through: three regions (one
	// rolled back and re-run sequentially), a verdict per safe point, a
	// rollback for the violating region, commits for the clean ones.
	for name, min := range map[string]int{
		"region":            2, // begin/end pairs; at least one full region
		"guard-verdict":     3,
		"rollback":          1,
		"checkpoint-commit": 2,
		"expand":            3,
		"iter":              1,
		"thread_name":       1, // metadata present
	} {
		if counts[name] < min {
			t.Fatalf("trace has %d %q events, want >= %d (counts: %v)",
				counts[name], name, min, counts)
		}
	}

	// The violating region's verdict names the rule the guard found.
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "guard-verdict" && ev.Args["label"] == "carried-flow" {
			found = true
		}
	}
	if !found {
		t.Fatal("no guard-verdict event labelled carried-flow")
	}

	// Metrics surface: the registry renders, and the recovery counters
	// agree with the result.
	var mbuf bytes.Buffer
	if err := o.Metrics.Render(&mbuf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{
		"recover.rollbacks", "guard.violations", "interp.regions.parallel",
		"mem.allocs",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Fatalf("metrics output lacks %q:\n%s", want, mbuf.String())
		}
	}
	PublishRegionStats(o.Metrics, res.Regions)
	PublishGuardReports(o.Metrics, res.Violations)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["region.loop2.rollbacks"]; got != 1 {
		t.Fatalf("region.loop2.rollbacks = %d, want 1", got)
	}
	if snap.Counters["guard.report.rule.carried-flow"] == 0 {
		t.Fatal("guard report rule counter missing")
	}

	// Hot-site surface: the profiler attributed cost to resolvable
	// sites of the expanded program, including per-copy attribution.
	rep := o.Hot.Report()
	if len(rep) == 0 {
		t.Fatal("hot profiler recorded nothing")
	}
	frames := HotSiteFrames(tr.Expanded)
	resolved, perCopy := 0, 0
	for _, r := range rep {
		if fs := frames(r.Site); len(fs) > 0 {
			resolved++
		}
		if r.Copy >= 0 {
			perCopy++
		}
	}
	if resolved == 0 {
		t.Fatal("no hot site resolved to a source position")
	}
	if perCopy == 0 {
		t.Fatal("no hot site attributed to an expanded copy")
	}
	var fbuf bytes.Buffer
	if err := o.Hot.Folded(&fbuf, frames); err != nil {
		t.Fatalf("Folded: %v", err)
	}
	if !strings.Contains(fbuf.String(), ";copy ") {
		t.Fatalf("folded stacks lack copy frames:\n%s", fbuf.String())
	}
}

// TestObsHealthReportRendering pins the migrated health report: the
// per-region records render through the metrics formatter, replacing
// the old ad-hoc fmt.Fprintf block in cmd/gdsx.
func TestObsHealthReportRendering(t *testing.T) {
	a := workloads.AdversarialMultiRegion()
	native, err := Compile(a.Name+".c", a.Expose(workloads.Test))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := Transform(native, TransformOptions{
		Guard:         true,
		ProfileSource: a.Profile(workloads.Test),
	})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{Threads: 2, Recover: &RecoverySpec{}})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	var buf bytes.Buffer
	if err := RenderHealthReport(&buf, res); err != nil {
		t.Fatalf("RenderHealthReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"region.loop1.parallel_runs", "region.loop2.rollbacks",
		"region.loop3.parallel_runs", "guard.report.rule.carried-flow",
		"region.loop2.demoted",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("health report lacks %q:\n%s", want, out)
		}
	}
}
