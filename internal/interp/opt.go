// Optimization pipeline for the compiled engine.
//
// compileProgram runs three passes between sema and closure emission,
// all off when Options.Opt == OptNone (-engine compiled-noopt):
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
//
//  3. Profile-guided site specialization (opt_fuse.go): with a
//     SiteProfile attached, the top-K hottest access sites get a
//     single flattened accessor closure (cache touch + bounds check +
//     direct LoadN/StoreN) instead of the generic two-closure chain;
//     every other site keeps the generic path.
package interp

import (
	"sort"

	"gdsx/internal/obs"
)

// OptLevel selects how much of the optimization pipeline the engine
// applies. The zero value is the full pipeline.
type OptLevel int

const (
	// OptDefault applies the full pipeline (promotion, fusion, and —
	// when a profile is attached — site specialization).
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

// DefaultProfileTopK is how many of the hottest sites a SiteProfile
// specializes when TopK is left zero.
const DefaultProfileTopK = 16

// SiteProfile carries per-access-site weights from a previous profiled
// run (gdsx pipeline -hotspots-json). The compiler specializes the
// TopK heaviest sites; everything else keeps the generic accessors.
type SiteProfile struct {
	// Weights maps an access-site ID to its observed load+store count.
	Weights map[int]int64
	// TopK bounds how many sites are specialized (0 means
	// DefaultProfileTopK).
	TopK int
}

// SiteProfileFromReports builds a profile from the hot-site reports an
// Observer produces, merging expansion copies of the same site.
func SiteProfileFromReports(reps []obs.SiteReport) *SiteProfile {
	p := &SiteProfile{Weights: map[int]int64{}}
	for _, r := range reps {
		p.Weights[r.Site] += r.Loads + r.Stores
	}
	return p
}

// hotSet returns the TopK heaviest sites. Ties break toward the lower
// site ID so the set is deterministic.
func (p *SiteProfile) hotSet() map[int]bool {
	if p == nil || len(p.Weights) == 0 {
		return nil
	}
	k := p.TopK
	if k <= 0 {
		k = DefaultProfileTopK
	}
	sites := make([]int, 0, len(p.Weights))
	for s := range p.Weights {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		wi, wj := p.Weights[sites[i]], p.Weights[sites[j]]
		if wi != wj {
			return wi > wj
		}
		return sites[i] < sites[j]
	})
	if len(sites) > k {
		sites = sites[:k]
	}
	hot := make(map[int]bool, len(sites))
	for _, s := range sites {
		hot[s] = true
	}
	return hot
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
	// hot is the set of access sites to specialize, nil without a
	// profile.
	hot map[int]bool
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
	if !access {
		cfg.hot = m.opts.OptProfile.hotSet()
	}
	return cfg
}
