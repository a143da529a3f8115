package bench

// Adaptive speculation ladder: what each rung buys, as two suites.
//
//  1. adapt-reexpand: the window workload violates at 4 threads on
//     every region execution, so a recover-only run is stuck rolling
//     back. The adaptive driver re-expands (layout flip, then
//     copy-count halving) into a clean 2-thread configuration; the
//     case compares that steady state against the stuck baseline.
//  2. adapt-comm: the reduction workload's carried flow is real, so
//     expansion alone cannot parallelize it; the per-thread
//     accumulator copies the pass emits can. The gated count is the
//     simulated loop speedup over native sequential execution (the
//     paper figures' currency); the wall ratio of a real guarded run,
//     which also proves the privatization sound, is reported beside it.

import (
	"fmt"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/workloads"
)

// nativeOutput is the sequential output the adapt suites check against.
func (h *Harness) nativeOutput(prog *gdsx.Program) (string, error) {
	res, err := prog.Run(h.run(gdsx.RunOptions{ForceSequential: true}))
	return res.Output, err
}

func (h *Harness) adaptSuites(quick bool) ([]Suite, error) {
	reexpand, err := h.adaptReexpand(quick)
	if err != nil {
		return nil, err
	}
	comm, err := h.adaptComm(h.topThreads())
	if err != nil {
		return nil, err
	}
	return []Suite{reexpand, comm}, nil
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
	// Both sides run guarded with region recovery.
	run := func(tr *gdsx.TransformResult, n int, m *gdsx.Memory) (*gdsx.GuardedResult, error) {
		res, err := gdsx.GuardedRunPrecompiled(g.native, tr, tr.Expanded, gdsx.RunOptions{Threads: n,
			Sched: gdsx.SchedStatic, Memory: m, Recover: &gdsx.RecoverySpec{}})
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
	classes := 0
	for _, r := range tr.Reports {
		classes += r.CommClasses
	}
	if classes != 3 {
		return Suite{}, fmt.Errorf("%s: %d commutative classes privatized, want 3 (total, hist, hi)",
			w.Name, classes)
	}
	// Traced sequential runs feed the simulator. A sequential run of the
	// privatized loop updates copy 0 only, and the merge after the loop
	// is outside the traced region, so the trace is the loop's work.
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
				// Without privatization every region violates from two
				// threads up, so a clean run shows the copies carry the
				// accumulators' flow.
				res, err := gdsx.GuardedRunPrecompiled(prog, tr, tr.Expanded, gdsx.RunOptions{Threads: n,
					Sched: gdsx.SchedStatic, Memory: m, Recover: &gdsx.RecoverySpec{}})
				if err != nil {
					return Sample{}, err
				}
				if res.FellBack || len(res.Violations) > 0 {
					return Sample{}, fmt.Errorf("privatization left a violation:\n%v", res.Violation)
				}
				return Sample{Output: res.Result.Output, Count: float64(simulated),
					Proxy: map[string]int64{"comm_classes": int64(classes)}}, nil
			},
		})
	}
	return s, nil
}
