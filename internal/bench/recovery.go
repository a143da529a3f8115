package bench

// Recovery benefit and cost: region-scoped rollback recovery against
// the whole-program sequential fallback on violating inputs (the
// benefit: only the bad region loses its parallelism), and the
// incremental write-log snapshot against plain guarded execution on
// violation-free inputs (the cost: pre-image copying on the first
// write to each page, paid even when no rollback ever happens). Page
// counts ride beside the wall times they are meant to predict.
// Neither suite is gated.

import (
	"fmt"

	"gdsx"
	"gdsx/internal/workloads"
)

// regionPages totals the snapshot and rollback pages over a run's
// regions.
func regionPages(res *gdsx.GuardedResult) map[string]int64 {
	var snap, back int64
	for _, r := range res.Regions {
		snap += int64(r.SnapshotPages)
		back += int64(r.RollbackPages)
	}
	return map[string]int64{"snapshot_pages": snap, "rollback_pages": back}
}

func (h *Harness) recoverySuites() ([]Suite, error) {
	threads := h.topThreads()
	plain := func(m *gdsx.Memory) gdsx.RunOptions {
		return gdsx.RunOptions{Threads: threads, Memory: m}
	}
	logged := func(m *gdsx.Memory) gdsx.RunOptions {
		return gdsx.RunOptions{Threads: threads, Memory: m, Recover: &gdsx.RecoverySpec{}}
	}

	// The violating side: the adversarial workloads' exposing inputs,
	// without RunOptions.Recover (discard the run, re-execute the whole
	// program sequentially) and with it (roll back and re-execute just
	// the violating regions).
	violating := Suite{Name: "recovery-violating", Metric: "speedup (fallback/recover wall)",
		Better: Higher, Threads: threads}
	for _, a := range workloads.AdversarialAll() {
		g, err := h.buildGuarded(a.Name, a.Expose(h.cfg.Scale), a.Profile(h.cfg.Scale))
		if err != nil {
			return nil, err
		}
		violating.Cases = append(violating.Cases, Case{Name: a.Name,
			Base: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.run(plain(m))
				if err != nil {
					return Sample{}, err
				}
				if !res.FellBack {
					return Sample{}, fmt.Errorf("exposing input did not trip the guard")
				}
				return Sample{Output: res.Result.Output}, nil
			},
			Cand: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.run(logged(m))
				if err != nil {
					return Sample{}, err
				}
				if res.FellBack {
					return Sample{}, fmt.Errorf("recovery run still fell back whole-program")
				}
				p := regionPages(res)
				p["rollbacks"] = int64(res.Recovered)
				return Sample{Output: res.Result.Output, Proxy: p}, nil
			},
		})
	}

	// The overhead side: the standard workloads' violation-free inputs,
	// guarded on both sides; the candidate also write-logs every region.
	overhead := Suite{Name: "recovery-overhead", Metric: "overhead (snapshot/no snapshot wall)",
		Better: Lower, Threads: threads}
	for _, w := range workloads.All() {
		g, err := h.buildWorkload(w)
		if err != nil {
			return nil, err
		}
		overhead.Cases = append(overhead.Cases, Case{Name: w.Name,
			Base: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.run(plain(m))
				if err != nil {
					return Sample{}, err
				}
				return Sample{Output: res.Result.Output}, nil
			},
			Cand: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.run(logged(m))
				if err != nil {
					return Sample{}, err
				}
				if res.Recovered != 0 || res.FellBack {
					return Sample{}, fmt.Errorf("rollback on a profiled input")
				}
				return Sample{Output: res.Result.Output, Proxy: regionPages(res)}, nil
			},
		})
	}
	return []Suite{violating, overhead}, nil
}
