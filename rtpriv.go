package gdsx

import (
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/rtpriv"
)

// PrivateSites profiles every parallel loop of the program and returns
// the union of its thread-private access sites per Definition 5. The
// loops are profiled in one run, in a pooled arena or in opts.Memory,
// as Transform does.
func (p *Program) PrivateSites(opts RunOptions) ([]int, error) {
	loops := p.ParallelLoops()
	prs, err := p.profileLoops(loops, opts)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []int
	for _, id := range loops {
		cls := ddg.Classify(prs[id].Graph, ddg.DefaultOptions())
		for _, s := range cls.PrivateSites() {
			if as := p.Info.Accesses[s]; as != nil && as.IsDef {
				continue
			}
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// RtStats reports what the runtime-privatization monitor did.
type RtStats struct {
	Monitored   int64
	Copies      int64
	CopiedBytes int64
}

// RunRuntimePrivatized executes the ORIGINAL (untransformed) program
// under the SpiceC-style runtime privatization baseline (§4.2.1): the
// given private access sites are intercepted at run time and redirected
// to thread-local copies, with the monitoring cost charged to the
// simulated op counters.
func (p *Program) RunRuntimePrivatized(privateSites []int, ropts RunOptions) (Result, RtStats, error) {
	rt := rtpriv.New(privateSites, rtpriv.DefaultModel())
	ropts.Hooks = rt.Hooks()
	own := ropts.poolArena()
	iopts := ropts.interpOptions()
	// The monitor must engage even for single-thread overhead runs.
	iopts.ParallelizeSingle = true
	m := interp.New(p.AST, p.Info, iopts)
	rt.Bind(m)
	res, err := m.Run()
	putArena(own)
	s := rt.Stats()
	return res, RtStats{Monitored: s.Monitored, Copies: s.Copies, CopiedBytes: s.CopiedBytes}, err
}
