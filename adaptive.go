package gdsx

import (
	"fmt"

	"gdsx/internal/expand"
	"gdsx/internal/obs"
)

// Layout re-exports the expansion pass's copy-layout selector.
type Layout = expand.Layout

// Copy layouts.
const (
	LayoutBonded      = expand.Bonded
	LayoutInterleaved = expand.Interleaved
	LayoutAdaptive    = expand.Adaptive
)

// The adaptive ladder's re-expansion policy.
const (
	// maxReexpand bounds the runtime re-expansions: one layout flip,
	// one copy-count halving.
	maxReexpand = 2
	// strikeThreshold is how many violations at the same
	// (loop, rule, site, other-site) pair trigger a re-expansion.
	strikeThreshold = 2
)

// Reexpansion records one runtime re-expansion decision.
type Reexpansion struct {
	// Attempt is the guarded execution (1-based) whose violations
	// triggered the decision.
	Attempt int
	// Loop/Rule/Site/OtherSite identify the repeated-violation site
	// pair (sites in the expanded program of that attempt).
	Loop      int
	Rule      string
	Site      int
	OtherSite int
	// From/To name the layouts before and after; Threads is the copy
	// count after the decision.
	From, To string
	Threads  int
	// Failed marks a re-expansion that did not take effect: injected by
	// FaultPlan.FailReexpand, or the re-transform was rejected (e.g.
	// the interleaved layout refusing a recast buffer). Reason says
	// which.
	Failed bool
	Reason string
}

// AdaptiveResult is the outcome of an adaptive guarded execution.
type AdaptiveResult struct {
	// Final is the last attempt's guarded result — the one whose output
	// stands. Every attempt's output is already correct (the recovery
	// ladder guarantees it); re-expansion is a performance adaptation.
	Final *GuardedResult
	// Transform is the transform result of the final attempt.
	Transform *TransformResult
	// Attempts counts guarded executions (1 = no re-expansion needed).
	Attempts int
	// Threads is the copy count of the final attempt (re-expansion may
	// have reduced it from the caller's RunOptions.Threads).
	Threads int
	// Layout names the final attempt's copy layout.
	Layout string
	// Reexpansions records every re-expansion decision, including
	// failed ones.
	Reexpansions []Reexpansion
	// Strikes is the residual per-site-pair violation tally of the
	// final attempt, keyed "loop<id>/<rule>/<site>-<other>".
	Strikes map[string]int
}

// pairKey identifies a repeated-violation site pair.
type pairKey struct {
	loop        int
	rule        string
	site, other int
}

func (k pairKey) String() string {
	return fmt.Sprintf("loop%d/%s/%d-%d", k.loop, k.rule, k.site, k.other)
}

// flipLayout is the bonded <-> interleaved re-expansion move.
func flipLayout(l Layout) Layout {
	if l == LayoutInterleaved {
		return LayoutBonded
	}
	return LayoutInterleaved
}

// AdaptiveRun executes the program through the full adaptive
// speculation ladder. Each attempt transforms the program with topts,
// guard markers and commutative privatization forced on (the ladder is
// built on both), and runs it guarded with region recovery (ropts;
// Recover defaults to &RecoverySpec{}); chaos injection
// (ropts.FaultPlan) applies per attempt. When one
// attempt's violation reports show the same (loop, rule, site-pair)
// striking strikeThreshold times, AdaptiveRun re-expands: first flipping
// the copy layout (bonded <-> interleaved), then halving the copy count
// (thread count), re-admitting the program on a fresh recovery ladder
// each time, at most maxReexpand times. Decisions — including
// re-expansions that fail, whether rejected by the pass or injected by
// FaultPlan.FailReexpand — are recorded in the result and as
// "reexpand" events on ropts.Obs.
//
// The returned result's Final.Result carries the output of the last
// attempt; its correctness does not depend on the adaptation (every
// attempt recovers violating regions individually).
func AdaptiveRun(p *Program, topts TransformOptions, ropts RunOptions) (*AdaptiveResult, error) {
	eopts := expand.Optimized()
	if topts.Expand != nil {
		eopts = *topts.Expand
	}
	eopts.GuardNotes = true
	eopts.Commutative = true
	topts.Expand = &eopts
	topts.Guard = true

	if ropts.Recover == nil {
		ropts.Recover = &RecoverySpec{}
	}
	if ropts.Threads <= 0 {
		ropts.Threads = 1
	}

	emit := func(loop int, label string, v1 int64) {
		if ropts.Obs != nil {
			ropts.Obs.Emit(obs.Event{Name: "reexpand", Ph: 'i', Loop: loop, Iter: -1,
				Label: label, V1: v1})
		}
	}

	res := &AdaptiveResult{}
	reexpands := 0 // re-expansion decisions so far (FailReexpand counter)
	tr, err := Transform(p, topts)
	if err != nil {
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		if attempt > 1 && ropts.Memory != nil {
			ropts.Memory.Reset() // a caller arena still holds the last attempt
		}
		gr, err := GuardedRunPrecompiled(p, tr, tr.Expanded, ropts)
		if err != nil {
			return nil, err
		}
		res.Final, res.Transform, res.Attempts = gr, tr, attempt
		res.Threads = ropts.Threads
		res.Layout = eopts.Layout.String()
		if len(tr.Reports) > 0 {
			res.Layout = tr.Reports[0].LayoutUsed.String()
		}

		// Tally this attempt's violations per site pair. Site IDs live
		// in this attempt's expanded program, so the tally never mixes
		// transforms; a re-expansion starts a fresh ladder.
		strikes := map[pairKey]int{}
		var worst *pairKey
		for _, rep := range gr.Violations {
			for _, v := range rep.Violations {
				k := pairKey{loop: rep.Loop, rule: v.Rule, site: v.Site, other: v.OtherSite}
				strikes[k]++
				if strikes[k] >= strikeThreshold && worst == nil {
					wk := k
					worst = &wk
				}
			}
		}
		res.Strikes = map[string]int{}
		for k, n := range strikes {
			res.Strikes[k.String()] = n
		}
		if worst == nil || reexpands >= maxReexpand {
			return res, nil
		}

		// Re-expand: flip the layout on the first strike-out, halve the
		// copy count after that (or when the flipped layout is
		// rejected — e.g. interleaving a recast buffer).
		reexpands++
		rx := Reexpansion{
			Attempt: attempt, Loop: worst.loop, Rule: worst.rule,
			Site: worst.site, OtherSite: worst.other,
			From: eopts.Layout.String(), Threads: ropts.Threads,
		}
		if fp := ropts.FaultPlan; fp != nil && fp.FailReexpand > 0 && reexpands%fp.FailReexpand == 0 {
			rx.To, rx.Failed, rx.Reason = rx.From, true, "injected by fault plan"
			res.Reexpansions = append(res.Reexpansions, rx)
			emit(worst.loop, "reexpand-failed: "+rx.Reason, int64(strikes[*worst]))
			return res, nil
		}
		if reexpands == 1 {
			next := topts
			neo := eopts
			neo.Layout = flipLayout(eopts.Layout)
			next.Expand = &neo
			ntr, terr := Transform(p, next)
			if terr == nil {
				eopts, topts, tr = neo, next, ntr
				rx.To = eopts.Layout.String()
				res.Reexpansions = append(res.Reexpansions, rx)
				emit(worst.loop, rx.From+"->"+rx.To, int64(strikes[*worst]))
				continue
			}
			rx.To, rx.Failed, rx.Reason = rx.From, true, terr.Error()
			res.Reexpansions = append(res.Reexpansions, rx)
			emit(worst.loop, "reexpand-failed: layout rejected", int64(strikes[*worst]))
			// Fall through to the copy-count move below without
			// consuming another re-expansion budget slot for the
			// rejected flip.
		}
		if ropts.Threads <= 1 {
			return res, nil
		}
		rx = Reexpansion{
			Attempt: attempt, Loop: worst.loop, Rule: worst.rule,
			Site: worst.site, OtherSite: worst.other,
			From: eopts.Layout.String(), To: eopts.Layout.String(),
		}
		ropts.Threads /= 2
		rx.Threads = ropts.Threads
		res.Reexpansions = append(res.Reexpansions, rx)
		emit(worst.loop, fmt.Sprintf("copies:%d->%d", rx.Threads*2, rx.Threads), int64(strikes[*worst]))
	}
}
