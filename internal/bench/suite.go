package bench

// The wall-time runner. Every host-clock comparison this package makes
// (opt, guard, recovery, obs, adapt) is a Suite of paired cases, and
// measureCase is the one place that decides how a case is timed:
// untimed warmup pairs, then paired samples whose order alternates,
// each on a Reset arena after a runtime.GC, so neither the order, the
// collector nor zeroing a fresh 256 MiB arena lands in a sample. Each
// case reports the median of its paired ratios with their IQR/median
// spread; each suite reports the geomean over its cases and how far
// that geomean moves (see spreadBatches). Gate holds a quick run to its
// checked-in baseline by one rule. The paper's figures (experiments.go, sched.go) are not
// timed here: they are deterministic simulated operation counts.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"gdsx"
)

// Better is the direction in which a suite's ratio improves.
type Better string

const (
	// Higher orients the ratio as baseline/candidate cost: a speedup,
	// or a cut in counted work.
	Higher Better = "higher"
	// Lower orients it as candidate/baseline cost: an overhead.
	Lower Better = "lower"
)

const (
	warmups = 1  // untimed pairs per case
	reps    = 16 // measured pairs per case

	// A suite's spread is that of a geomean over 1/spreadBatches of its
	// reps: the IQR/median of the per-rep geomeans over
	// √(reps/spreadBatches). A full run's geomean moves less than that
	// between runs; the margin keeps the gate quiet on a shared host,
	// whose timing tails are heavier than normal.
	spreadBatches = 4

	// A quick run fails its gate when the suite geomean is worse than
	// the baseline's by more than max(gateFloor, gateSpreads × the
	// larger of the two suite spreads).
	gateFloor   = 0.05
	gateSpreads = 2
)

// Families are the suite families gdsxbench -suite selects, in run
// order; each writes BENCH_<family>.json.
var Families = []string{"opt", "guard", "recovery", "obs", "adapt"}

// Suite is a list of paired cases compared under one metric.
type Suite struct {
	Name   string
	Metric string // what the ratio is, e.g. "speedup (noopt/opt)"
	// Count names the counted quantity the ratio compares (Sample.Count);
	// empty compares wall time.
	Count   string
	Better  Better
	Threads int
	// Gated suites are held to the checked-in baseline by a quick run.
	Gated bool
	Cases []Case
	// Accept, when set, checks the measured suite against a floor it
	// must clear.
	Accept func(*SuiteResult) error
	// Close, when set, releases what the cases hold once measured.
	Close func()
}

// Case is one paired comparison. Base and Cand each run one sample on
// the runner's arena, freshly Reset; both close over programs built
// once, untimed.
type Case struct {
	Name       string
	Note       string // context reported beside the case
	Base, Cand func(*gdsx.Memory) (Sample, error)
}

// Sample is what one side of a case reports besides its wall time.
type Sample struct {
	// Output must be identical on both sides of every pair.
	Output string
	// Count is the suite's counted quantity (see Suite.Count).
	Count float64
	// Proxy holds counters reported next to the wall time they predict
	// (both sides' maps merged; the last measured pair's values).
	Proxy map[string]int64
}

// Stat summarizes one quantity of a case over its paired samples.
type Stat struct {
	Base   float64   `json:"base"` // median of the baseline side
	Cand   float64   `json:"cand"` // median of the candidate side
	Ratio  float64   `json:"ratio"`
	Spread float64   `json:"spread"` // IQR/median of Ratios
	Ratios []float64 `json:"ratios"` // per pair, oriented by the suite's Better
}

// CaseResult is one measured case.
type CaseResult struct {
	Name string `json:"name"`
	Note string `json:"note,omitempty"`
	Wall Stat   `json:"wall_ns"`
	// Count is set when the suite compares a counted quantity; the wall
	// ratio beside it is reported, not gated.
	Count *Stat            `json:"count,omitempty"`
	Proxy map[string]int64 `json:"proxy,omitempty"`
}

// metric is the stat the suite's ratio reads.
func (c *CaseResult) metric() *Stat {
	if c.Count != nil {
		return c.Count
	}
	return &c.Wall
}

// SuiteResult is one measured suite.
type SuiteResult struct {
	Name    string       `json:"name"`
	Metric  string       `json:"metric"`
	Count   string       `json:"count,omitempty"`
	Better  Better       `json:"better"`
	Threads int          `json:"threads"`
	Gated   bool         `json:"gated"`
	Reps    int          `json:"reps"`
	Geomean float64      `json:"geomean"`
	Spread  float64      `json:"spread"`
	Cases   []CaseResult `json:"cases"`
}

// Host records where a report was measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// SuiteReport is one family's measurement, the schema of every
// BENCH_{opt,guard,recovery,obs,adapt}.json.
type SuiteReport struct {
	Name   string        `json:"name"`
	Scale  string        `json:"scale"`
	Quick  bool          `json:"quick,omitempty"`
	Host   Host          `json:"host"`
	Suites []SuiteResult `json:"suites"`
}

func (r *SuiteReport) suite(name string) *SuiteResult {
	for i := range r.Suites {
		if r.Suites[i].Name == name {
			return &r.Suites[i]
		}
	}
	return nil
}

// Measure builds a family's suites (untimed) and measures them. quick
// restricts each to its gate subset; a family with nothing to gate
// (recovery) yields a report without suites.
func (h *Harness) Measure(family string, quick bool) (*SuiteReport, error) {
	var suites []Suite
	var err error
	switch family {
	case "opt":
		suites, err = h.optSuites(quick)
	case "guard":
		suites, err = h.guardSuites(quick)
	case "recovery":
		if !quick {
			suites, err = h.recoverySuites()
		}
	case "obs":
		suites, err = h.obsSuites(quick)
	case "adapt":
		suites, err = h.adaptSuites()
	default:
		return nil, fmt.Errorf("unknown suite %q", family)
	}
	defer func() {
		for _, s := range suites {
			if s.Close != nil {
				s.Close()
			}
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", family, err)
	}
	rep := &SuiteReport{
		Name: family, Scale: scaleName(h.cfg.Scale), Quick: quick,
		Host: Host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
	}
	for i := range suites {
		r, err := h.measureSuite(&suites[i])
		if err != nil {
			return nil, err
		}
		rep.Suites = append(rep.Suites, r)
	}
	return rep, nil
}

func (h *Harness) measureSuite(s *Suite) (SuiteResult, error) {
	r := SuiteResult{Name: s.Name, Metric: s.Metric, Count: s.Count, Better: s.Better,
		Threads: s.Threads, Gated: s.Gated, Reps: reps}
	for _, c := range s.Cases {
		cr, err := h.measureCase(s, c)
		if err != nil {
			return r, fmt.Errorf("%s/%s: %w", s.Name, c.Name, err)
		}
		r.Cases = append(r.Cases, cr)
	}
	r.Geomean, r.Spread = suiteStats(r.Cases)
	if s.Accept != nil {
		if err := s.Accept(&r); err != nil {
			return r, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return r, nil
}

// baseFirst reports whether pair i runs the baseline side first.
func baseFirst(i int) bool { return i%2 == 0 }

func (h *Harness) measureCase(s *Suite, c Case) (CaseResult, error) {
	if h.arena == nil {
		h.arena = gdsx.NewMemory(h.cfg.MemSize)
	}
	var wall, count [2][]float64
	proxy := map[string]int64{}
	for i := 0; i < warmups+reps; i++ {
		var out [2]Sample
		var ns [2]float64
		order := [2]int{0, 1}
		if !baseFirst(i) {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			run, name := c.Base, "baseline"
			if side == 1 {
				run, name = c.Cand, "candidate"
			}
			h.arena.Reset()
			runtime.GC()
			start := time.Now()
			smp, err := run(h.arena)
			ns[side] = float64(time.Since(start).Nanoseconds())
			if err != nil {
				return CaseResult{}, fmt.Errorf("%s: %w", name, err)
			}
			out[side] = smp
		}
		if out[0].Output != out[1].Output {
			return CaseResult{}, fmt.Errorf("candidate output %q differs from baseline %q",
				out[1].Output, out[0].Output)
		}
		if i < warmups {
			continue
		}
		for side := range out {
			wall[side] = append(wall[side], ns[side])
			count[side] = append(count[side], out[side].Count)
			for k, v := range out[side].Proxy {
				proxy[k] = v
			}
		}
	}
	r := CaseResult{Name: c.Name, Note: c.Note, Wall: stat(s.Better, wall[0], wall[1])}
	if s.Count != "" {
		st := stat(s.Better, count[0], count[1])
		r.Count = &st
	}
	if len(proxy) > 0 {
		r.Proxy = proxy
	}
	return r, nil
}

func stat(b Better, base, cand []float64) Stat {
	ratios := make([]float64, len(base))
	for i := range base {
		if b == Higher {
			ratios[i] = base[i] / cand[i]
		} else {
			ratios[i] = cand[i] / base[i]
		}
	}
	return Stat{Base: median(base), Cand: median(cand), Ratio: median(ratios),
		Spread: spread(ratios), Ratios: ratios}
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range relative to the median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

func geomean(xs []float64) float64 {
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// suiteStats returns the geomean of the cases' median ratios and the
// suite spread (see spreadBatches).
func suiteStats(cases []CaseResult) (geo, spr float64) {
	meds := make([]float64, len(cases))
	n := len(cases[0].metric().Ratios)
	for i := range cases {
		meds[i] = cases[i].metric().Ratio
		n = min(n, len(cases[i].metric().Ratios))
	}
	perRep := make([]float64, n)
	for r := range perRep {
		xs := make([]float64, len(cases))
		for i := range cases {
			xs[i] = cases[i].metric().Ratios[r]
		}
		perRep[r] = geomean(xs)
	}
	return geomean(meds), spread(perRep) / math.Sqrt(float64(n)/spreadBatches)
}

// Verdict is one gated suite's comparison against its baseline.
type Verdict struct {
	Suite     string
	Got, Want float64 // geomeans over the quick run's cases
	Worse     float64 // how much worse Got is than Want, as a fraction
	Tolerance float64
}

// Pass reports whether the suite stayed within its tolerance.
func (v Verdict) Pass() bool { return v.Worse <= v.Tolerance }

func (v Verdict) String() string {
	res := "pass"
	if !v.Pass() {
		res = "FAIL"
	}
	return fmt.Sprintf("%s: geomean %.3fx vs baseline %.3fx over the same cases:"+
		" %+.1f%% worse, tolerance %.1f%%: %s", v.Suite, v.Got, v.Want,
		v.Worse*100, v.Tolerance*100, res)
}

// Gate compares every gated suite of a quick run against the baseline
// report over the run's cases. A suite fails when its geomean is worse
// than the baseline's by more than max(5%, 2 × the larger of the two
// suite spreads). A baseline at another scale or thread count, or one
// lacking a suite or case, is an error: it cannot vouch for the run.
func Gate(got, base *SuiteReport) ([]Verdict, error) {
	if got.Scale != base.Scale {
		return nil, fmt.Errorf("baseline %s is at %s scale, this run at %s",
			base.Name, base.Scale, got.Scale)
	}
	var out []Verdict
	for _, s := range got.Suites {
		if !s.Gated {
			continue
		}
		b := base.suite(s.Name)
		if b == nil {
			return nil, fmt.Errorf("baseline %s has no %s suite", base.Name, s.Name)
		}
		if b.Threads != s.Threads {
			return nil, fmt.Errorf("baseline %s measured at %d threads, this run at %d",
				s.Name, b.Threads, s.Threads)
		}
		matched := make([]CaseResult, 0, len(s.Cases))
		for _, c := range s.Cases {
			found := false
			for _, bc := range b.Cases {
				if bc.Name == c.Name {
					matched, found = append(matched, bc), true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("baseline %s has no case %s", s.Name, c.Name)
			}
		}
		want, wantSpread := suiteStats(matched)
		v := Verdict{Suite: s.Name, Got: s.Geomean, Want: want,
			Tolerance: max(gateFloor, gateSpreads*max(s.Spread, wantSpread))}
		if s.Better == Higher {
			v.Worse = want/s.Geomean - 1
		} else {
			v.Worse = s.Geomean/want - 1
		}
		out = append(out, v)
	}
	return out, nil
}

// Stale returns the names of the baseline's gated suites that the run
// did not produce. Gate walks only the run's suites, so a gated
// baseline suite the code no longer measures would otherwise go
// unnoticed; a full family run must produce every one of them.
func Stale(got, base *SuiteReport) []string {
	var out []string
	for _, b := range base.Suites {
		if b.Gated && got.suite(b.Name) == nil {
			out = append(out, b.Name)
		}
	}
	return out
}

// Render formats the report as one text table per suite.
func (r *SuiteReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s: %s scale, %s %s/%s, nproc %d, GOMAXPROCS %d;"+
		" median of %d paired reps after %d untimed; a case's spread is the"+
		" IQR/median of its paired ratios\n", r.Name, r.Scale, r.Host.GoVersion,
		r.Host.GOOS, r.Host.GOARCH, r.Host.NumCPU, r.Host.GOMAXPROCS, reps, warmups)
	ms := func(ns float64) string {
		return time.Duration(ns).Round(time.Microsecond).String()
	}
	for _, s := range r.Suites {
		gated := ""
		if s.Gated {
			gated = ", gated"
		}
		fmt.Fprintf(&b, "\n%s: %s, %s is better, %d threads%s\n", s.Name, s.Metric,
			s.Better, s.Threads, gated)
		t := &table{}
		hdr := []string{"case", "base", "cand", "ratio", "spread"}
		if s.Count != "" {
			hdr = []string{"case", s.Count + " base", "cand", "ratio", "spread",
				"wall base", "wall cand", "wall ratio"}
		}
		t.add(append(hdr, "proxies")...)
		for _, c := range s.Cases {
			m := c.metric()
			row := []string{c.Name, ms(m.Base), ms(m.Cand)}
			if c.Count != nil {
				row[1], row[2] = fmt.Sprintf("%.0f", m.Base), fmt.Sprintf("%.0f", m.Cand)
			}
			row = append(row, fmt.Sprintf("%.2fx", m.Ratio), fmt.Sprintf("%.1f%%", m.Spread*100))
			if c.Count != nil {
				row = append(row, ms(c.Wall.Base), ms(c.Wall.Cand), fmt.Sprintf("%.2fx", c.Wall.Ratio))
			}
			var proxies []string
			for k, v := range c.Proxy {
				proxies = append(proxies, fmt.Sprintf("%s=%d", k, v))
			}
			sort.Strings(proxies)
			if c.Note != "" {
				proxies = append(proxies, c.Note)
			}
			t.add(append(row, strings.Join(proxies, " "))...)
		}
		t.add("geomean", "", "", fmt.Sprintf("%.2fx", s.Geomean), fmt.Sprintf("%.1f%%", s.Spread*100))
		b.WriteString(t.String())
	}
	return b.String()
}
