package bench

// Commutative privatization, the adapt family's one suite: the
// reduction workload's carried flow is real, so expansion alone cannot
// parallelize it; the per-thread accumulator copies the pass emits
// can. The gated count is the simulated loop speedup over native
// sequential execution (the paper figures' currency); the wall ratio
// of a real guarded run, which also proves the privatization sound, is
// reported beside it.

import (
	"fmt"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/workloads"
)

func (h *Harness) adaptSuites() ([]Suite, error) {
	comm, err := h.adaptComm(h.topThreads())
	if err != nil {
		return nil, err
	}
	return []Suite{comm}, nil
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
