package gdsx

import (
	"fmt"
	"io"

	"gdsx/internal/guard"
	"gdsx/internal/obs"
)

// Registry, Tracer and HotSites re-export the observability component
// types so callers can assemble a custom Observer.
type (
	Registry = obs.Registry
	Tracer   = obs.Tracer
	HotSites = obs.HotSites
)

// NewRegistry, NewTracer and NewHotSites re-export the component
// constructors for callers assembling a custom Observer (e.g. a
// metrics-only observer for a long-lived expvar endpoint, where an
// event tracer's buffer would only grow).
func NewRegistry() *Registry      { return obs.NewRegistry() }
func NewTracer(limit int) *Tracer { return obs.NewTracer(limit) }
func NewHotSites() *HotSites      { return obs.NewHotSites() }

// PublishRegionStats folds per-region recovery health records into the
// registry under "region.loop<ID>.*" names, one instrument per field.
// This is the bridge from Result.Regions to the unified metrics
// pipeline: anything that renders a registry (the -metrics flag, the
// expvar endpoint) renders region health with it.
func PublishRegionStats(reg *Registry, regions []RegionStats) {
	for _, r := range regions {
		p := fmt.Sprintf("region.loop%d.", r.Loop)
		reg.Counter(p + "parallel_runs").Add(int64(r.ParallelRuns))
		reg.Counter(p + "seq_runs").Add(int64(r.SeqRuns))
		reg.Counter(p + "violations").Add(int64(r.Violations))
		reg.Counter(p + "faults").Add(int64(r.Faults))
		reg.Counter(p + "timeouts").Add(int64(r.Timeouts))
		reg.Counter(p + "rollbacks").Add(int64(r.Rollbacks))
		reg.Counter(p + "rollback_pages").Add(int64(r.RollbackPages))
		reg.Counter(p + "rollback_bytes").Add(r.RollbackBytes)
		reg.Counter(p + "snapshot_pages").Add(int64(r.SnapshotPages))
		reg.Counter(p + "snapshot_bytes").Add(r.SnapshotBytes)
		reg.Counter(p + "repromotions").Add(int64(r.Repromotions))
		demoted := int64(0)
		if r.Demoted {
			demoted = 1
		}
		reg.Gauge(p + "demoted").Set(demoted)
	}
}

// PublishGuardReports folds guard violation reports into the registry:
// a total per report plus one counter per violation rule, under
// "guard.report.*" names.
func PublishGuardReports(reg *Registry, reports []*guard.Report) {
	for _, rep := range reports {
		reg.Counter("guard.report.regions").Inc()
		reg.Counter("guard.report.violations").Add(int64(rep.Total))
		for _, v := range rep.Violations {
			reg.Counter("guard.report.rule." + v.Rule).Inc()
		}
	}
}

// PublishTierStats folds per-region guard-sampling tier records into
// the registry under "adapt.loop<ID>.*" names: the current sampling
// stride as a gauge (1 = full guarding) plus counters for the tier
// transitions.
func PublishTierStats(reg *Registry, tiers []TierStats) {
	for _, t := range tiers {
		p := fmt.Sprintf("adapt.loop%d.", t.Loop)
		reg.Gauge(p + "sample_k").Set(int64(t.K))
		reg.Gauge(p + "clean_streak").Set(int64(t.CleanStreak))
		reg.Counter(p + "suspicions").Add(int64(t.Suspicions))
		reg.Counter(p + "escalations").Add(int64(t.Escalations))
		reg.Counter(p + "promotions").Add(int64(t.Promotions))
		reg.Counter(p + "tier_violations").Add(int64(t.Violations))
	}
}

// PublishAdaptiveStats folds an adaptive run's ladder state into the
// registry: per-region tiers, the per-site-pair strike tallies of the
// final attempt ("adapt.strikes.<pair>"), the re-expansion count, and
// the chosen layout/copy count.
func PublishAdaptiveStats(reg *Registry, res *AdaptiveResult) {
	if res == nil {
		return
	}
	if res.Final != nil {
		PublishTierStats(reg, res.Final.Tiers)
	}
	for pair, n := range res.Strikes {
		reg.Counter("adapt.strikes." + pair).Add(int64(n))
	}
	reg.Counter("adapt.reexpansions").Add(int64(len(res.Reexpansions)))
	for _, rx := range res.Reexpansions {
		if rx.Failed {
			reg.Counter("adapt.reexpand_failures").Inc()
		}
	}
	reg.Gauge("adapt.attempts").Set(int64(res.Attempts))
	reg.Gauge("adapt.threads").Set(int64(res.Threads))
	reg.Gauge("adapt.layout." + res.Layout).Set(1)
}

// RenderHealthReport renders a guarded run's per-region health records
// and guard violation summary as metrics text: the stats are published
// into a scratch registry and rendered through the standard
// Registry.Render formatter, so the command-line report and the
// -metrics output share one format.
func RenderHealthReport(w io.Writer, res *GuardedResult) error {
	reg := obs.NewRegistry()
	PublishRegionStats(reg, res.Regions)
	PublishGuardReports(reg, res.Violations)
	return reg.Render(w)
}

// HotSiteFrames builds the frame resolver Folded needs from a compiled
// program: site IDs map to a two-frame stack of enclosing function and
// accessed expression with its source position. For runs of a
// transformed program, resolve against TransformResult.Expanded — the
// profile's site IDs live in the expanded program's space.
func HotSiteFrames(p *Program) func(site int) []string {
	return func(site int) []string {
		as := p.Info.Accesses[site]
		if as == nil {
			return nil
		}
		fn := "?"
		if as.Func != nil {
			fn = as.Func.Name
		}
		return []string{fn, fmt.Sprintf("%s @ %s", as.Text, as.Pos)}
	}
}

// WriteHotSites renders the profiler's hottest buckets as a table
// (top n, all when n <= 0) with sites resolved through frames.
func WriteHotSites(w io.Writer, h *HotSites, n int, frames func(site int) []string) error {
	rep := h.Top(n)
	for _, r := range rep {
		where := fmt.Sprintf("site#%d", r.Site)
		if fs := frames(r.Site); len(fs) > 0 {
			where = fs[len(fs)-1]
			if len(fs) > 1 {
				where = fs[0] + ": " + where
			}
		}
		cp := "-"
		if r.Copy >= 0 {
			cp = fmt.Sprintf("%d", r.Copy)
		}
		if _, err := fmt.Fprintf(w, "%10d loads %10d stores %12d bytes  copy %-3s %s\n",
			r.Loads, r.Stores, r.Bytes, cp, where); err != nil {
			return err
		}
	}
	return nil
}
