package bench

// Optimization pipeline: host time of the compiled engine with its
// passes (register promotion and superinstruction fusion) against the
// same engine with the pipeline off. The passes change dispatch cost
// only; output and counters stay identical (see the opt-parity tests
// at the repository root).

import (
	"fmt"

	"gdsx"
	"gdsx/internal/workloads"
)

// optGate is the opt suite's gate subset: pointer chasing, bit
// twiddling and a block transform, enough to catch a broken pass.
var optGate = []string{"dijkstra", "256.bzip2", "md5"}

// pick returns the named workloads when quick, else all of them.
func pick(quick bool, names []string) []*workloads.Workload {
	if !quick {
		return workloads.All()
	}
	ws := make([]*workloads.Workload, len(names))
	for i, name := range names {
		ws[i] = workloads.ByName(name)
	}
	return ws
}

func (h *Harness) optSuites(quick bool) ([]Suite, error) {
	s := Suite{Name: "opt", Metric: "speedup (noopt/opt wall)", Better: Higher,
		Threads: 1, Gated: true}
	for _, w := range pick(quick, optGate) {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		run := func(opt gdsx.OptLevel) func(*gdsx.Memory) (Sample, error) {
			return func(m *gdsx.Memory) (Sample, error) {
				res, err := prog.Run(gdsx.RunOptions{Threads: 1, Memory: m, Opt: opt})
				return Sample{Output: res.Output}, err
			}
		}
		s.Cases = append(s.Cases, Case{Name: w.Name,
			Base: run(gdsx.OptNone), Cand: run(gdsx.OptDefault)})
	}
	return []Suite{s}, nil
}
