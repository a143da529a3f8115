package gdsx

import (
	"errors"
	"fmt"

	"gdsx/internal/guard"
	"gdsx/internal/interp"
	"gdsx/internal/rtpriv"
)

// CommStats re-exports the commutative privatizer's statistics.
type CommStats = rtpriv.CommStats

// GuardedResult is the outcome of a guarded parallel execution.
type GuardedResult struct {
	// Result is the run that produced the program's output: the guarded
	// parallel run when no violation escaped (with RunOptions.Recover,
	// violating regions were rolled back and re-executed sequentially
	// inside that run), else the sequential re-execution of the native
	// program.
	Result Result
	// Violation is the first violation report, nil when none was
	// detected.
	Violation *guard.Report
	// Violations holds every violation the monitor detected. Without
	// recovery at most one exists (the abort ends the run); with
	// region-scoped recovery each entry corresponds to one rolled-back
	// region.
	Violations []*guard.Report
	// FellBack reports whether the output came from the whole-program
	// sequential fallback — the last resort when no region recovery is
	// configured.
	FellBack bool
	// Recovered counts parallel regions that were rolled back and
	// re-executed sequentially inside the guarded run (always 0 without
	// RunOptions.Recover).
	Recovered int
	// Regions holds the per-region recovery health records (rollbacks,
	// demotions, snapshot cost) when the run used RunOptions.Recover.
	Regions []RegionStats
	// Comm holds the commutative privatizer's statistics when the
	// transformation planted __comm_note markers (see
	// expand.Options.Commutative); nil otherwise.
	Comm *CommStats
}

// commClasses reports how many commutative classes the transformation
// handed to the runtime privatizer.
func (tr *TransformResult) commClasses() int {
	n := 0
	for _, r := range tr.Reports {
		n += r.CommClasses
	}
	return n
}

// GuardedRunPrecompiled executes a transformed program under the
// guarded-execution monitor. exp must be a compilation of tr.Source,
// normally tr.Expanded; native is the whole-program fallback. The
// transformation must have been produced with
// TransformOptions.Guard (or expand.Options.GuardNotes) so the expanded
// program carries its copy-geometry markers; without them the monitor
// sees no expanded structures and degrades to raw conflict detection.
//
// During the run, a per-thread access monitor logs every sited memory
// access; at each parallel region's end — the safe point — the logs are
// replayed against the expansion's assumptions (Definition 5 thread
// privacy, the profiled DDG's absence of unsynchronized carried
// dependences). If the input exposed a dependence the training profile
// never saw, the recovery ladder engages:
//
//  1. With opts.Recover set, the violating region alone is rolled back
//     to its entry snapshot and re-executed sequentially; the run then
//     continues in parallel. Regions that keep failing are demoted to
//     sequential execution (see RecoverySpec).
//  2. Without opts.Recover, the entire expanded run is discarded and
//     the native program re-executes sequentially — correct, but
//     O(program) cost for an O(region) fault.
//
// If the transformation planted commutative-privatization markers
// (expand.Options.Commutative), the commutative runtime is attached:
// reduction-shaped accumulators get per-thread identity-initialized
// copies merged at region exit, so their carried flow never reaches
// the monitor.
//
// Caller-supplied opts.Hooks are chained after the monitor's hooks
// (monitor first), so both observe the run; on the whole-program
// fallback the caller's hooks observe the sequential re-execution
// alone. A FailAlloc injection is disarmed on any fallback or rollback
// rather than re-armed: the countdown's allocation numbering belongs
// to the parallel attempt, and replaying it would fire the fault at an
// unrelated allocation of the re-execution.
func GuardedRunPrecompiled(native *Program, tr *TransformResult, exp *Program, opts RunOptions) (*GuardedResult, error) {
	if native == nil || tr == nil || exp == nil {
		return nil, fmt.Errorf("gdsx: guarded execution needs the native program, its transform result and the compiled expansion")
	}
	own := opts.poolArena()
	res, err := guardedRun(native, tr, exp, opts)
	putArena(own)
	return res, err
}

// guardedRun is GuardedRunPrecompiled with opts.Memory set.
func guardedRun(native *Program, tr *TransformResult, exp *Program, opts RunOptions) (*GuardedResult, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	mon := guard.New(guard.Config{Threads: threads, Info: exp.Info, Obs: opts.Obs})
	var comm *rtpriv.CommutativeRuntime
	chained := opts.Hooks
	if tr.commClasses() > 0 {
		comm = rtpriv.NewCommutative()
		chained = interp.ChainHooks(comm.Hooks(), chained)
	}
	gopts := opts
	gopts.Hooks = interp.ChainHooks(mon.Hooks(), chained)
	m := exp.NewMachine(gopts)
	if comm != nil {
		comm.Bind(m)
	}
	out, err := m.Run()
	finish := func(res *GuardedResult) *GuardedResult {
		if comm != nil {
			s := comm.Stats()
			res.Comm = &s
		}
		return res
	}
	if err == nil {
		res := &GuardedResult{
			Result:     out,
			Violations: mon.Reports(),
			Regions:    out.Regions,
		}
		if len(res.Violations) > 0 {
			res.Violation = res.Violations[0]
		}
		for _, r := range out.Regions {
			res.Recovered += r.Rollbacks
		}
		return finish(res), nil
	}
	var ve *guard.ViolationError
	if !errors.As(err, &ve) {
		return nil, err // a genuine runtime error, not a guard abort
	}
	// Dependence violation with no region recovery configured: discard
	// the expanded run and re-execute the native program sequentially,
	// in the Reset arena, for the correct output. The caller's hooks
	// observe this run; the monitor's do not (there is nothing left to
	// guard). The fault injection is disarmed — its countdown already
	// elapsed against the parallel attempt's allocation sequence, and
	// the native program allocates differently.
	sopts := opts // keeps opts.Hooks: the caller's hooks see the fallback
	sopts.ForceSequential = true
	sopts.FailAlloc = 0
	sopts.Memory.Reset()
	seq, serr := native.Run(sopts)
	if serr != nil {
		return nil, fmt.Errorf("gdsx: sequential re-execution after guard abort: %w", serr)
	}
	return finish(&GuardedResult{
		Result:     seq,
		Violation:  ve.Report,
		Violations: mon.Reports(),
		FellBack:   true,
	}), nil
}
