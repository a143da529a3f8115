package interp

import "sync"

// FaultPlan injects deterministic failures into the recovery ladder,
// for chaos testing: the ladder must converge to a correct (possibly
// sequential) execution no matter where forced rollbacks land. The
// counter is a 1-based "every Nth" frequency; 0 disables injection.
// Injection points are deterministic functions of region execution
// order, so a seeded plan reproduces exactly.
//
// Rollback injection piggybacks on the region-recovery machinery:
// without Options.Recover it is inert.
type FaultPlan struct {
	// RollbackEvery forces a rollback (counted as a worker fault, with
	// a strike that narrows the region) on every Nth
	// otherwise-successful parallel region execution.
	RollbackEvery int
}

// faultState tracks a machine's consumption of its FaultPlan. Regions
// start only on the spawning thread, but the mutex keeps injection
// safe if that ever changes.
type faultState struct {
	mu        sync.Mutex
	plan      FaultPlan
	rollbacks int
}

// injectRollback reports whether this region execution should be
// force-rolled-back as a fault.
func (fs *faultState) injectRollback() bool {
	if fs == nil || fs.plan.RollbackEvery <= 0 {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rollbacks++
	return fs.rollbacks%fs.plan.RollbackEvery == 0
}
