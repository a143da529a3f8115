package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gdsx"
	"gdsx/internal/workloads"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStatistics(t *testing.T) {
	odd := []float64{5, 1, 3}
	even := []float64{4, 1, 3, 2}
	for _, tc := range []struct {
		xs      []float64
		q, want float64
	}{
		{odd, 0.5, 3}, {odd, 0.25, 2}, {odd, 0.75, 4},
		{even, 0.5, 2.5}, {even, 0.25, 1.75}, {even, 0.75, 3.25},
		{[]float64{7}, 0.25, 7}, {[]float64{7}, 0.75, 7},
	} {
		if got := quantile(tc.xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !slices.Equal(odd, []float64{5, 1, 3}) {
		t.Errorf("quantile sorted its input in place: %v", odd)
	}
	if got := median(even); !near(got, 2.5) {
		t.Errorf("median(%v) = %v, want 2.5", even, got)
	}
	if got := spread(even); !near(got, 0.6) {
		t.Errorf("spread(%v) = %v, want (3.25-1.75)/2.5 = 0.6", even, got)
	}
	if got := spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("spread of equal samples = %v, want 0", got)
	}
	if got := geomean([]float64{1, 4}); !near(got, 2) {
		t.Errorf("geomean(1, 4) = %v, want 2", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2, 8, 4) = %v, want 4", got)
	}

	// The suite geomean is over the case medians; its spread is that of
	// the per-rep geomeans (here 2, 4, 8, 4), scaled to a geomean over
	// 1/spreadBatches of the reps.
	cases := []CaseResult{
		{Wall: Stat{Ratio: 2, Ratios: []float64{1, 2, 4, 2}}},
		{Wall: Stat{Ratio: 8, Ratios: []float64{4, 8, 16, 8}}},
	}
	geo, spr := suiteStats(cases)
	if !near(geo, 4) {
		t.Errorf("suite geomean = %v, want 4", geo)
	}
	if want := spread([]float64{2, 4, 8, 4}) / math.Sqrt(4.0/spreadBatches); !near(spr, want) {
		t.Errorf("suite spread = %v, want %v", spr, want)
	}
}

// TestMeasureCase drives the runner with closures that record their
// order and arena: every sample must start on the same, Reset arena,
// the two sides must alternate which runs first, and the ratio must be
// oriented by the suite's direction.
func TestMeasureCase(t *testing.T) {
	h := New(Config{MemSize: 1 << 20})
	var order []string
	var arena *gdsx.Memory
	side := func(name string, count float64, out string) func(*gdsx.Memory) (Sample, error) {
		return func(m *gdsx.Memory) (Sample, error) {
			if arena == nil {
				arena = m
			}
			if m != arena {
				t.Errorf("%s sample %d got a different arena", name, len(order))
			}
			if st := m.Stats(); st.Live != 0 || st.Allocs != 0 {
				t.Errorf("%s sample %d started on an arena that was not Reset: %+v", name, len(order), st)
			}
			if _, err := m.Alloc(64, 0, "test"); err != nil {
				return Sample{}, err
			}
			order = append(order, name)
			return Sample{Output: out, Count: count, Proxy: map[string]int64{name: int64(len(order))}}, nil
		}
	}
	s := &Suite{Name: "t", Count: "events", Better: Higher}
	r, err := h.measureCase(s, Case{Name: "c", Base: side("B", 10, "x"), Cand: side("C", 4, "x")})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < warmups+reps; i++ {
		if baseFirst(i) {
			want = append(want, "B", "C")
		} else {
			want = append(want, "C", "B")
		}
	}
	if !slices.Equal(order, want) {
		t.Errorf("sample order %v, want %v", order, want)
	}
	if want[0] != "B" || want[2] != "C" {
		t.Errorf("pairs do not alternate which side runs first: %v", want)
	}
	if r.Count == nil || !near(r.Count.Ratio, 2.5) || r.Count.Spread != 0 || len(r.Count.Ratios) != reps {
		t.Errorf("higher-is-better count stat %+v, want ratio 10/4 = 2.5 over %d pairs, spread 0", r.Count, reps)
	}
	if r.Proxy["B"] == 0 || r.Proxy["C"] == 0 {
		t.Errorf("proxies of both sides not merged: %v", r.Proxy)
	}

	s.Better = Lower
	if r, err = h.measureCase(s, Case{Name: "c", Base: side("B", 10, "x"), Cand: side("C", 4, "x")}); err != nil {
		t.Fatal(err)
	}
	if !near(r.Count.Ratio, 0.4) {
		t.Errorf("lower-is-better ratio %v, want 4/10 = 0.4", r.Count.Ratio)
	}

	_, err = h.measureCase(s, Case{Name: "c", Base: side("B", 10, "x"), Cand: side("C", 4, "y")})
	if err == nil || !strings.Contains(err.Error(), "differs from baseline") {
		t.Errorf("differing outputs gave %v, want an error", err)
	}
}

// loadBaseline reads a checked-in BENCH file from the repository root.
func loadBaseline(t *testing.T, family string) *SuiteReport {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+family+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep SuiteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_%s.json: %v", family, err)
	}
	return &rep
}

// quickOf is what a quick run of one suite would report if it measured
// the baseline's gate-subset cases with their metric ratios mapped by f.
func quickOf(t *testing.T, base *SuiteReport, suite string, names []string,
	f func(c *CaseResult) []float64) *SuiteReport {
	t.Helper()
	bs := base.suite(suite)
	if bs == nil {
		t.Fatalf("BENCH_%s.json has no %s suite", base.Name, suite)
	}
	s := *bs
	s.Cases = nil
	for _, name := range names {
		i := slices.IndexFunc(bs.Cases, func(c CaseResult) bool { return c.Name == name })
		if i < 0 {
			t.Fatalf("BENCH_%s.json %s has no case %s", base.Name, suite, name)
		}
		c := bs.Cases[i]
		ratios := f(&c)
		st := Stat{Ratio: median(ratios), Spread: spread(ratios), Ratios: ratios}
		if c.Count != nil {
			c.Count = &st
		} else {
			c.Wall = st
		}
		s.Cases = append(s.Cases, c)
	}
	s.Geomean, s.Spread = suiteStats(s.Cases)
	return &SuiteReport{Name: base.Name, Scale: base.Scale, Quick: true, Suites: []SuiteResult{s}}
}

func scaled(k float64) func(c *CaseResult) []float64 {
	return func(c *CaseResult) []float64 {
		var out []float64
		for _, r := range c.metric().Ratios {
			out = append(out, r*k)
		}
		return out
	}
}

func gateOne(t *testing.T, got, base *SuiteReport) Verdict {
	t.Helper()
	vs, err := Gate(got, base)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if len(vs) != 1 {
		t.Fatalf("gate returned %d verdicts, want 1: %v", len(vs), vs)
	}
	return vs[0]
}

// TestGate holds each gated suite's checked-in baseline to the gate
// rule: a quick run equal to it or within its tolerance passes, and the
// regression each suite exists to catch fails.
func TestGate(t *testing.T) {
	obsNames := make([]string, obsGate)
	for i, w := range workloads.All()[:obsGate] {
		obsNames[i] = w.Name
	}
	hot := loadBaseline(t, "obs").suite("obs-hot")
	for _, tc := range []struct {
		name, family, suite string
		cases               []string
		regress             func(c *CaseResult) []float64
	}{
		{"opt speedup collapses to 1.0x", "opt", "opt", optGate,
			func(c *CaseResult) []float64 { return scaled(1 / c.Wall.Ratio)(c) }},
		{"guard overhead doubles", "guard", "guard", guardGate, scaled(2)},
		{"obs leave-on reaches the hot tier's multiple", "obs", "obs-leave-on", obsNames,
			func(c *CaseResult) []float64 {
				i := slices.IndexFunc(hot.Cases, func(h CaseResult) bool { return h.Name == c.Name })
				return hot.Cases[i].Wall.Ratios
			}},
		{"adapt comm speedup falls to 1.0x", "adapt", "adapt-comm",
			[]string{"comm-reduce/n=1", "comm-reduce/n=2", "comm-reduce/n=4", "comm-reduce/n=8"},
			func(c *CaseResult) []float64 { return scaled(1 / c.Count.Ratio)(c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := loadBaseline(t, tc.family)
			if base.Scale != "profile" {
				t.Errorf("BENCH_%s.json is at %s scale, not the gate's profile scale", tc.family, base.Scale)
			}
			same := gateOne(t, quickOf(t, base, tc.suite, tc.cases, scaled(1)), base)
			if !same.Pass() || !near(same.Worse, 0) {
				t.Errorf("the baseline itself: %v", same)
			}
			worse := 1 + same.Tolerance/2
			if base.suite(tc.suite).Better == Higher {
				worse = 1 / worse
			}
			if v := gateOne(t, quickOf(t, base, tc.suite, tc.cases, scaled(worse)), base); !v.Pass() {
				t.Errorf("within tolerance: %v", v)
			}
			if v := gateOne(t, quickOf(t, base, tc.suite, tc.cases, tc.regress), base); v.Pass() {
				t.Errorf("designed regression passed: %v", v)
			}
		})
	}
}

func TestGateRefusesIncomparableBaselines(t *testing.T) {
	base := loadBaseline(t, "opt")
	quick := func() *SuiteReport { return quickOf(t, base, "opt", optGate, scaled(1)) }
	for _, tc := range []struct {
		name, want string
		edit       func(got, base *SuiteReport)
	}{
		{"scale", "scale", func(got, _ *SuiteReport) { got.Scale = "bench" }},
		{"threads", "threads", func(got, _ *SuiteReport) { got.Suites[0].Threads++ }},
		{"case", "no case", func(got, _ *SuiteReport) { got.Suites[0].Cases[0].Name = "absent" }},
		{"suite", "no opt suite", func(_, base *SuiteReport) { base.Suites = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, b := quick(), *base
			b.Suites = slices.Clone(base.Suites)
			tc.edit(got, &b)
			if _, err := Gate(got, &b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("gate error %v, want one naming the %s", err, tc.want)
			}
		})
	}

	// A suite that is not gated is not compared, even against a
	// baseline that lacks it.
	got := quick()
	got.Suites[0].Gated = false
	if vs, err := Gate(got, &SuiteReport{Scale: got.Scale}); err != nil || len(vs) != 0 {
		t.Errorf("ungated suite: verdicts %v, error %v; want neither", vs, err)
	}

	// A gated baseline suite the run did not produce is stale: the
	// code no longer measures what the baseline vouches for. An
	// ungated one is not.
	got = quick()
	b := *base
	b.Suites = append(slices.Clone(base.Suites),
		SuiteResult{Name: "retired", Gated: true}, SuiteResult{Name: "report-only"})
	if stale := Stale(got, &b); !slices.Equal(stale, []string{"retired"}) {
		t.Errorf("stale suites %v, want [retired]", stale)
	}
	if stale := Stale(got, base); len(stale) != 0 {
		t.Errorf("stale suites against the checked-in baseline %v, want none", stale)
	}
}
