// Optimization pipeline for the compiled engine.
//
// compileProgram runs two passes between sema and closure emission,
// both off when Options.Opt == OptNone (-engine compiled-noopt):
//
//  1. Scalar register promotion (opt_promote.go): locals whose address
//     is never taken live in Go-native frame slots (frame.regs) in
//     addition to their simulated-memory alloca. Reads come from the
//     register; writes update the register and write through to the
//     backing bytes, so simulated memory stays byte-identical to an
//     unoptimized run and every unfused read remains correct.
//     Promotion is disabled whenever something could see the
//     difference: per-access hooks (including an Observer's hot-site
//     profiler, which rides Observe) or parallel tracing. An Observer
//     without Hot sees only region-level events and keeps promotion.
//
//  2. Superinstruction fusion (opt_fuse.go): constant and promoted
//     operands are folded into their consumers — indexed addressing
//     (base + i*scale), binary operands, loop compare-and-branch,
//     compound assignment and ++/-- on promoted slots — eliminating
//     closure indirections while preserving exact work-counter totals
//     and fault order.
package interp

// OptLevel selects how much of the optimization pipeline the engine
// applies. The zero value is the full pipeline.
type OptLevel int

const (
	// OptDefault applies the full pipeline (promotion and fusion).
	OptDefault OptLevel = iota
	// OptNone compiles exactly the closures the engine emitted before
	// the pipeline existed; -engine compiled-noopt selects this.
	OptNone
)

// OptFromEngine parses an -engine flag value ("compiled",
// "compiled-noopt", or "" for the default) into the optimization level
// it selects. Unknown names report ok == false.
func OptFromEngine(name string) (OptLevel, bool) {
	switch name {
	case "", "compiled":
		return OptDefault, true
	case "compiled-noopt":
		return OptNone, true
	}
	return OptDefault, false
}

// optConfig is the compiler's resolved view of the pipeline switches.
type optConfig struct {
	// fuse enables superinstruction fusion and constant-operand
	// folding. Fusion preserves every observable (tick totals, cache
	// traffic, hook events, fault positions), so it only turns off at
	// OptNone.
	fuse bool
	// promote enables scalar register promotion. Promoted reads skip
	// the cache model, so promotion additionally requires that nothing
	// observes per-access state: no access hooks and no parallel
	// tracing.
	promote bool
}

func newOptConfig(m *Machine) optConfig {
	if m.opts.Opt == OptNone {
		return optConfig{}
	}
	cfg := optConfig{fuse: true}
	// An access chain that waived both sequential-context events and
	// own-stack worker events (the guard monitor) keeps promotion: the
	// scalars promotion hides are exactly frame slots — sequential-
	// context ones under RegionOnly, worker-own-stack ones (helpers
	// called from loop bodies) under PrivateStacks.
	h := m.opts.Hooks
	access := h.HasAccessHooks()
	cfg.promote = (!access || (h.RegionOnly && h.PrivateStacks)) && !m.opts.TraceParallel
	return cfg
}
