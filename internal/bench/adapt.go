package bench

// Adaptive speculation ladder: what each rung buys, as three suites.
//
//  1. adapt-sampling: the monitor's checked accesses (the
//     "guard.events_logged" counter) under full guarding vs the
//     sampling ladder, on a clean workload that re-executes its region
//     enough times to earn the sampled tiers. The cut counts events,
//     so it is deterministic and gated; the ladder must cut checking at
//     least in half. The full/sampled wall ratio is reported beside it.
//  2. adapt-reexpand: the window workload violates at 4 threads on
//     every region execution, so a recover-only run is stuck rolling
//     back. The adaptive driver re-expands (layout flip, then
//     copy-count halving) into a clean 2-thread configuration; the
//     case compares that steady state against the stuck baseline.
//  3. adapt-comm: the reduction workload's carried flow is real, so
//     expansion alone cannot parallelize it; privatized per-thread
//     accumulators can. The gated count is the simulated loop speedup
//     over native sequential execution (the paper figures' currency);
//     the wall ratio of a real privatized guarded run, which also
//     proves engagement and correctness, is reported beside it.

import (
	"fmt"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/workloads"
)

// adaptSample is the tier spec both wall-time adapt suites run with:
// a region earns the sampled tier after one clean execution.
var adaptSample = gdsx.TierSpec{PromoteAfter: 1, SampleK: 8}

// nativeOutput is the sequential output the adapt suites check against.
func (h *Harness) nativeOutput(prog *gdsx.Program) (string, error) {
	res, err := prog.Run(h.run(gdsx.RunOptions{ForceSequential: true}))
	return res.Output, err
}

func (h *Harness) adaptSuites(quick bool) ([]Suite, error) {
	threads := h.topThreads()
	sampling, err := h.adaptSampling(threads)
	if err != nil {
		return nil, err
	}
	reexpand, err := h.adaptReexpand(quick)
	if err != nil {
		return nil, err
	}
	comm, err := h.adaptComm(threads)
	if err != nil {
		return nil, err
	}
	return []Suite{sampling, reexpand, comm}, nil
}

// adaptSampling runs the clean escape profile (ten region executions)
// guarded, with the tier controller off and on, under the default
// ladder and an aggressive k=8 first tier.
func (h *Harness) adaptSampling(threads int) (Suite, error) {
	w := workloads.AdversarialEscape()
	src := w.Profile(h.cfg.Scale)
	g, err := h.buildGuarded(w.Name, src, src)
	if err != nil {
		return Suite{}, err
	}
	want, err := h.nativeOutput(g.native)
	if err != nil {
		return Suite{}, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	run := func(sample *gdsx.TierSpec) func(*gdsx.Memory) (Sample, error) {
		return func(m *gdsx.Memory) (Sample, error) {
			// A registry per run isolates its logged-event count.
			reg := gdsx.NewRegistry()
			res, err := g.run(gdsx.RunOptions{Threads: threads, Sched: gdsx.SchedStatic,
				Memory: m, Obs: &gdsx.Observer{Metrics: reg}, Sample: sample,
				Recover: &gdsx.RecoverySpec{}})
			if err != nil {
				return Sample{}, err
			}
			if res.FellBack || len(res.Violations) > 0 {
				return Sample{}, fmt.Errorf("guard fired on the clean profile")
			}
			if res.Result.Output != want {
				return Sample{}, fmt.Errorf("guarded output diverges from native")
			}
			events := reg.Snapshot().Counters["guard.events_logged"]
			if events <= 0 {
				return Sample{}, fmt.Errorf("guarded run logged no events")
			}
			return Sample{Output: res.Result.Output, Count: float64(events)}, nil
		}
	}
	s := Suite{Name: "adapt-sampling", Metric: "check cut (full/sampled events)",
		Count: "guard.events_logged", Better: Higher, Threads: threads, Gated: true,
		Accept: func(r *SuiteResult) error {
			if r.Geomean < 2 {
				return fmt.Errorf("geomean check cut %.2fx is below the 2x floor"+
					" the ladder must clear on clean regions", r.Geomean)
			}
			return nil
		},
	}
	for _, c := range []struct {
		name string
		spec gdsx.TierSpec
	}{
		{w.Name, gdsx.TierSpec{}},
		{w.Name + "/k8", gdsx.TierSpec{SampleK: 8}},
	} {
		s.Cases = append(s.Cases, Case{Name: c.name, Base: run(nil), Cand: run(&c.spec)})
	}
	return s, nil
}

// adaptReexpand times the window workload stuck in the recovery ladder
// against the configuration the adaptive driver re-expands into. The
// decision pass itself is untimed: re-expansion is a one-off cost, and
// what production keeps paying is the steady state it lands in.
func (h *Harness) adaptReexpand(quick bool) (Suite, error) {
	w := workloads.AdversarialWindow()
	g, err := h.buildGuarded(w.Name, w.Expose(h.cfg.Scale), w.Profile(h.cfg.Scale))
	if err != nil {
		return Suite{}, err
	}
	want, err := h.nativeOutput(g.native)
	if err != nil {
		return Suite{}, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	// 4 threads static, so the violation window straddles a chunk
	// boundary on every execution.
	const threads = 4
	ares, err := gdsx.AdaptiveRun(g.native,
		gdsx.TransformOptions{Guard: true, ProfileSource: w.Profile(h.cfg.Scale)},
		h.run(gdsx.RunOptions{Threads: threads, Sched: gdsx.SchedStatic}))
	if err != nil {
		return Suite{}, fmt.Errorf("%s: adaptive run: %w", w.Name, err)
	}
	if ares.Final.Result.Output != want {
		return Suite{}, fmt.Errorf("%s: adaptive output diverges from native", w.Name)
	}
	if ares.Threads < 2 {
		return Suite{}, fmt.Errorf("%s: re-expansion failed to keep the region parallel"+
			" (final copy count %d)", w.Name, ares.Threads)
	}
	if len(ares.Reexpansions) == 0 {
		return Suite{}, fmt.Errorf("%s: the violating window triggered no re-expansion", w.Name)
	}
	// Both sides run the full ladder, sampling included. The tier spec
	// only affects clean streaks, so the violating baseline is untouched
	// by it; the adapted steady state earns the sampled tier at once.
	run := func(tr *gdsx.TransformResult, n int, m *gdsx.Memory) (*gdsx.GuardedResult, error) {
		res, err := gdsx.GuardedRunPrecompiled(g.native, tr, tr.Expanded, gdsx.RunOptions{Threads: n,
			Sched: gdsx.SchedStatic, Memory: m, Recover: &gdsx.RecoverySpec{}, Sample: &adaptSample})
		if err == nil && res.Result.Output != want {
			err = fmt.Errorf("output diverges from native")
		}
		return res, err
	}
	return Suite{Name: "adapt-reexpand", Metric: "speedup (stuck baseline/adapted wall)",
		Better: Higher, Threads: threads,
		Cases: []Case{{Name: w.Name,
			Note: fmt.Sprintf("%d attempts, %d re-expansions -> %s x%d", ares.Attempts,
				len(ares.Reexpansions), ares.Layout, ares.Threads),
			Base: func(m *gdsx.Memory) (Sample, error) {
				res, err := run(g.tr, threads, m)
				if err != nil {
					return Sample{}, err
				}
				if res.Recovered == 0 {
					return Sample{}, fmt.Errorf("baseline never rolled back — the window did not violate")
				}
				return Sample{Output: res.Result.Output,
					Proxy: map[string]int64{"baseline_rollbacks": int64(res.Recovered)}}, nil
			},
			Cand: func(m *gdsx.Memory) (Sample, error) {
				res, err := run(ares.Transform, ares.Threads, m)
				if err != nil {
					return Sample{}, err
				}
				if len(res.Violations) > 0 {
					return Sample{}, fmt.Errorf("steady state still violates (%d regions)",
						len(res.Violations))
				}
				return Sample{Output: res.Result.Output}, nil
			},
		}},
		Accept: func(r *SuiteResult) error {
			if !quick && r.Geomean <= 1 {
				return fmt.Errorf("adapted steady state (%.2fx) does not beat the"+
					" stuck-at-demoted baseline", r.Geomean)
			}
			return nil
		},
	}, nil
}

// adaptComm compares the privatized reduction with native sequential
// execution at each configured thread count: the counted ratio is the
// schedule simulator's loop speedup (native loop ops over the traced
// expanded loop's simulated makespan, as in Figure 11), the wall ratio
// that of a real guarded parallel run under the full ladder.
func (h *Harness) adaptComm(top int) (Suite, error) {
	w := workloads.CommReduce()
	src := w.Profile(h.cfg.Scale)
	prog, err := gdsx.Compile(w.Name+".c", src)
	if err != nil {
		return Suite{}, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	eopts := expand.Optimized()
	eopts.Commutative = true
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Guard: true, ProfileSource: src, Expand: &eopts,
	})
	if err != nil {
		return Suite{}, fmt.Errorf("%s: transform: %w", w.Name, err)
	}
	// Traced sequential runs feed the simulator: the expansion left the
	// accumulators shared — sequentially that is simply the in-order
	// reduction, so the trace is exact — and marked the loop parallel
	// because privatization will carry its flow.
	native, err := prog.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return Suite{}, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	traced, err := tr.Expanded.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return Suite{}, fmt.Errorf("%s: expanded run: %w", w.Name, err)
	}
	if traced.Output != native.Output {
		return Suite{}, fmt.Errorf("%s: expanded output diverges from native", w.Name)
	}
	nativeOps := float64(loopOps(native))
	s := Suite{Name: "adapt-comm", Metric: "speedup (native/privatized, simulated loop ops)",
		Count: "simulated loop ops", Better: Higher, Threads: top, Gated: true,
		Accept: func(r *SuiteResult) error {
			if last := r.Cases[len(r.Cases)-1]; last.Count.Ratio <= 1 {
				return fmt.Errorf("privatized reduction (%.2fx at %d threads) does"+
					" not beat sequential execution", last.Count.Ratio, top)
			}
			return nil
		},
	}
	for _, n := range h.cfg.Threads {
		simulated, _ := h.loopTime(traced, n)
		s.Cases = append(s.Cases, Case{Name: fmt.Sprintf("%s/n=%d", w.Name, n),
			Base: func(m *gdsx.Memory) (Sample, error) {
				res, err := prog.Run(gdsx.RunOptions{ForceSequential: true, Memory: m})
				return Sample{Output: res.Output, Count: nativeOps}, err
			},
			Cand: func(m *gdsx.Memory) (Sample, error) {
				// The region is clean (privatization removed its carried
				// flow), so it must stay violation-free and actually route
				// the accumulator traffic through private copies.
				res, err := gdsx.GuardedRunPrecompiled(prog, tr, tr.Expanded, gdsx.RunOptions{Threads: n,
					Sched: gdsx.SchedStatic, Memory: m, Recover: &gdsx.RecoverySpec{},
					Sample: &adaptSample})
				if err != nil {
					return Sample{}, err
				}
				if res.FellBack || len(res.Violations) > 0 {
					return Sample{}, fmt.Errorf("privatization left a violation:\n%v", res.Violation)
				}
				// One thread runs the loop sequentially: nothing to privatize.
				if n > 1 && (res.Comm == nil || res.Comm.Redirected == 0 || res.Comm.Merged == 0) {
					return Sample{}, fmt.Errorf("the privatizer never engaged: %+v", res.Comm)
				}
				smp := Sample{Output: res.Result.Output, Count: float64(simulated)}
				if res.Comm != nil {
					smp.Proxy = map[string]int64{"redirected": res.Comm.Redirected,
						"merged": res.Comm.Merged}
				}
				return smp, nil
			},
		})
	}
	return s, nil
}
