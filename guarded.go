package gdsx

import (
	"errors"
	"fmt"

	"gdsx/internal/guard"
	"gdsx/internal/interp"
	"gdsx/internal/rtpriv"
)

// TierSpec re-exports the guard monitor's sampling-tier configuration.
type TierSpec = guard.TierSpec

// TierStats re-exports the per-region sampling-tier health record.
type TierStats = guard.TierStats

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
	// Suspicions counts rollbacks caused by sampled-tier suspicions
	// rather than confirmed violations (always 0 without
	// RunOptions.Sample). Suspicions charge no demotion strike.
	Suspicions int
	// Regions holds the per-region recovery health records (rollbacks,
	// demotions, snapshot cost) when the run used RunOptions.Recover.
	Regions []RegionStats
	// Tiers holds the per-region guard-sampling tier records when the
	// run used RunOptions.Sample.
	Tiers []TierStats
	// Comm holds the commutative privatizer's statistics when the
	// transformation planted __comm_note markers (see
	// expand.Options.Commutative); nil otherwise.
	Comm *CommStats
	// Expanded is the compiled expanded program the guarded run
	// executed. Hot-site profiles attribute cost to the expanded
	// program's access sites; resolve them against Expanded.Info (e.g.
	// via HotSiteFrames).
	Expanded *Program
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

// GuardedRun executes a transformed program under the guarded-execution
// monitor. The transformation must have been produced with
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
// With opts.Sample set, each region additionally moves through guard
// sampling tiers: after a clean streak the monitor checks only every
// k-th iteration (k escalating geometrically), and any suspicious
// access — evidence that could be a sampling artifact — rolls the
// region back without a demotion strike and restores full guarding
// before the next region entry. Checkpoint/rollback remains the safety
// net: a region that commits under an unsampled violation is corrupt
// only until the tier realigns, which the escalation guarantees within
// k executions.
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
func GuardedRun(native *Program, tr *TransformResult, opts RunOptions) (*GuardedResult, error) {
	if native == nil || tr == nil {
		return nil, fmt.Errorf("gdsx: guarded execution needs the native program and its transform result")
	}
	exp, err := Compile(native.File+" (expanded)", tr.Source)
	if err != nil {
		return nil, fmt.Errorf("gdsx: compiling transformed program: %w", err)
	}
	return GuardedRunPrecompiled(native, tr, exp, opts)
}

// GuardedRunPrecompiled is GuardedRun with the expanded program's
// compilation hoisted out: exp must be a compilation of tr.Source.
// Callers that run the same transform repeatedly (the gdsxd service's
// transform cache) compile once and amortize parse+sema across runs.
func GuardedRunPrecompiled(native *Program, tr *TransformResult, exp *Program, opts RunOptions) (*GuardedResult, error) {
	if native == nil || tr == nil || exp == nil {
		return nil, fmt.Errorf("gdsx: guarded execution needs the native program, its transform result and the compiled expansion")
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	var tiers *guard.TierController
	if opts.Sample != nil {
		tiers = guard.NewTierController(*opts.Sample)
	}
	mon := guard.New(guard.Config{Threads: threads, Info: exp.Info, Obs: opts.Obs, Tiers: tiers})
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
		if tiers != nil {
			res.Tiers = tiers.Snapshot()
		}
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
			Expanded:   exp,
		}
		if len(res.Violations) > 0 {
			res.Violation = res.Violations[0]
		}
		for _, r := range out.Regions {
			res.Recovered += r.Rollbacks
			res.Suspicions += r.Suspicions
		}
		return finish(res), nil
	}
	var ve *guard.ViolationError
	var se *interp.SuspicionError
	if !errors.As(err, &ve) && !errors.As(err, &se) {
		return nil, err // a genuine runtime error, not a guard abort
	}
	// Dependence violation (or an unrecoverable sampled-tier suspicion)
	// with no region recovery configured: discard the expanded run (its
	// machine and memory are dropped wholesale) and re-execute the
	// native program sequentially for the correct output. The caller's
	// hooks observe this run; the monitor's do not (there is nothing
	// left to guard). The fault injection is disarmed — its countdown
	// already elapsed against the parallel attempt's allocation
	// sequence, and the native program allocates differently.
	sopts := opts // keeps opts.Hooks: the caller's hooks see the fallback
	sopts.ForceSequential = true
	sopts.FailAlloc = 0
	if sopts.Memory != nil {
		// A caller-supplied arena still holds the abandoned attempt's
		// blocks, accounting and fault countdown; the fallback needs it
		// as fresh as the arena it would otherwise allocate.
		sopts.Memory.Reset()
	}
	seq, serr := native.Run(sopts)
	if serr != nil {
		return nil, fmt.Errorf("gdsx: sequential re-execution after guard abort: %w", serr)
	}
	res := &GuardedResult{
		Result:     seq,
		Violations: mon.Reports(),
		FellBack:   true,
		Expanded:   exp,
	}
	if ve != nil {
		res.Violation = ve.Report
	} else {
		res.Suspicions = 1
	}
	return finish(res), nil
}
