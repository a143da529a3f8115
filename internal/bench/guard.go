package bench

// Guard overhead: what the guarded-execution monitor costs on runs
// that never violate — whether runtime dependence checking is cheap
// enough to leave on when the profiled inputs may not cover production
// behavior. The monitor adds no simulated operations (it observes
// through hooks), so only host time shows its cost.

import (
	"fmt"

	"gdsx"
	"gdsx/internal/workloads"
)

// guardGate is the guard suite's gate subset: the workload whose
// monitor overhead was historically worst (mpeg2-encoder: dense
// small-loop access traffic), plus a hash kernel and a block
// compressor. All three are DOALL-dominated: a DOACROSS workload's
// unguarded baseline spin-waits on cross-iteration posts and swings
// with goroutine scheduling on an oversubscribed host.
var guardGate = []string{"md5", "mpeg2-encoder", "256.bzip2"}

// guardedProgram is a workload compiled and guard-transformed —
// everything a timed guarded run reuses.
type guardedProgram struct {
	native *gdsx.Program
	tr     *gdsx.TransformResult
}

// buildGuarded prepares a guarded run of src, profiled on psrc.
func (h *Harness) buildGuarded(name, src, psrc string) (*guardedProgram, error) {
	prog, err := gdsx.Compile(name+".c", src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Guard: true, ProfileSource: psrc, ProfileOpts: h.run(gdsx.RunOptions{}),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", name, err)
	}
	return &guardedProgram{native: prog, tr: tr}, nil
}

func (g *guardedProgram) run(opts gdsx.RunOptions) (*gdsx.GuardedResult, error) {
	return gdsx.GuardedRunPrecompiled(g.native, g.tr, g.tr.Expanded, opts)
}

// buildWorkload is buildGuarded for a standard workload at the harness
// scale, profiled at profile scale (or the harness scale when smaller).
func (h *Harness) buildWorkload(w *workloads.Workload) (*guardedProgram, error) {
	src := w.Source(h.cfg.Scale)
	psrc := w.Source(workloads.ProfileScale)
	if h.cfg.Scale == workloads.ProfileScale || h.cfg.Scale == workloads.Test {
		psrc = src
	}
	return h.buildGuarded(w.Name, src, psrc)
}

func (h *Harness) topThreads() int { return h.cfg.Threads[len(h.cfg.Threads)-1] }

func (h *Harness) guardSuites(quick bool) ([]Suite, error) {
	threads := h.topThreads()
	s := Suite{Name: "guard", Metric: "overhead (guarded/unguarded wall)", Better: Lower,
		Threads: threads, Gated: true}
	for _, w := range pick(quick, guardGate) {
		g, err := h.buildWorkload(w)
		if err != nil {
			return nil, err
		}
		// Both sides run the same guard-transformed program (markers
		// included) in parallel; the candidate adds the access monitor
		// and its end-of-region replay.
		s.Cases = append(s.Cases, Case{Name: w.Name,
			Base: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.tr.Expanded.Run(gdsx.RunOptions{Threads: threads, Memory: m})
				return Sample{Output: res.Output}, err
			},
			Cand: func(m *gdsx.Memory) (Sample, error) {
				res, err := g.run(gdsx.RunOptions{Threads: threads, Memory: m})
				if err != nil {
					return Sample{}, err
				}
				if res.FellBack || res.Violation != nil {
					return Sample{}, fmt.Errorf("guard fired on a profiled input:\n%s", res.Violation)
				}
				return Sample{Output: res.Result.Output}, nil
			},
		})
	}
	return []Suite{s}, nil
}
