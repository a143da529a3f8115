package main

import (
	"fmt"

	"gdsx"
	"gdsx/internal/interp"
)

// Run modes. native runs the untransformed program at one thread;
// expanded runs the transformed program with plain Program.Run; guarded
// runs it through GuardedRunPrecompiled with region recovery.
type mode int

const (
	native mode = iota
	expanded
	guarded
	numModes
)

var modeNames = [numModes]string{"native", "expanded", "guarded"}

// runOut is what one run produced, kept for the reference and
// exact-count checks.
type runOut struct {
	output string
	// ops counts work and scheduler operations. Ordered-section spin
	// counts (interp.CatWait) depend on timing and are left out, so ops
	// must repeat exactly between runs.
	ops           int64
	memHigh       int64 // simulated-memory high water, bytes
	violations    int
	rollbacks     int
	parallelRuns  int
	snapshotPages int
	rollbackPages int
}

func collect(res gdsx.Result) runOut {
	o := runOut{
		output:  res.Output,
		ops:     res.Counters[interp.CatWork] + res.Counters[interp.CatSync],
		memHigh: res.MemStats.HighWater,
	}
	for _, r := range res.Regions {
		o.rollbacks += r.Rollbacks
		o.parallelRuns += r.ParallelRuns
		o.snapshotPages += r.SnapshotPages
		o.rollbackPages += r.RollbackPages
	}
	return o
}

// execute runs b in mode m at the given thread count. Untraced it calls
// Program.Run or GuardedRunPrecompiled. Traced, a plain run is split
// into gdsx.NewMemory, Program.NewMachine with that memory and
// Machine.Run, and a guarded run gets its memory from a timed
// gdsx.NewMemory; each call is a span under parent.
func execute(t *tracer, parent int, b *built, m mode, threads int) (runOut, error) {
	opts := gdsx.RunOptions{Threads: threads}
	if m == guarded {
		opts.Recover = &gdsx.RecoverySpec{}
	}
	if t != nil {
		id := t.begin("mem.new", parent, 0, 0)
		opts.Memory = gdsx.NewMemory(0)
		t.end(id)
	}
	if m == guarded {
		id := t.begin("guard.run", parent, 0, 0)
		g, err := gdsx.GuardedRunPrecompiled(b.native, b.tr, b.exp, opts)
		t.end(id)
		if err != nil {
			return runOut{}, err
		}
		if g.FellBack {
			return runOut{}, fmt.Errorf("guarded run fell back to sequential re-execution")
		}
		o := collect(g.Result)
		o.violations = len(g.Violations)
		return o, nil
	}
	p := b.native
	if m == expanded {
		p = b.exp
	}
	if t == nil {
		res, err := p.Run(opts)
		return collect(res), err
	}
	name := "interp.exec"
	if m == native {
		name = "interp.exec_native"
	}
	id := t.begin("interp.compile", parent, 0, 0)
	mach := p.NewMachine(opts)
	t.end(id)
	id = t.begin(name, parent, 0, 0)
	res, err := mach.Run()
	t.end(id)
	return collect(res), err
}
