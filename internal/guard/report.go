package guard

import (
	"fmt"
	"strings"

	"gdsx/internal/interp"
)

// Violation rules.
const (
	// RuleCarriedFlow: a read whose sequential data source is another
	// iteration's write that landed in a different copy — a
	// loop-carried flow dependence the thread-private classification
	// (Definition 5) ruled out on the training input.
	RuleCarriedFlow = "carried-flow"
	// RuleStaleCopy: a read through a non-zero copy of a byte no
	// iteration has written; sequential execution would observe the
	// pre-loop value, but copies other than 0 start zero-filled.
	RuleStaleCopy = "stale-copy-read"
	// RuleForeignCopy: an access landing in a copy that belongs to
	// neither the shared copy 0 nor the accessing thread.
	RuleForeignCopy = "foreign-copy-access"
	// RuleConflict: a cross-thread, cross-iteration conflict on the
	// same concrete address with at least one write and no ordered
	// section serializing both sides — an unsynchronized dependence
	// absent from the profiled DDG.
	RuleConflict = "unsynchronized-conflict"
)

// Violation describes one detected dependence violation. Site/Pos/Text
// identify the violating access in the expanded program; the Other*
// fields identify the conflicting access when one exists (a
// stale-copy-read has no in-region counterpart).
type Violation struct {
	Rule string `json:"rule"`
	Addr int64  `json:"addr"`

	Site int    `json:"site"`
	Pos  string `json:"pos"`
	Text string `json:"text"`
	Iter int64  `json:"iter"`
	Tid  int    `json:"tid"`
	// Copy is the copy index the access landed in, or -1 when the
	// address is outside every expanded structure.
	Copy int `json:"copy"`

	OtherSite int    `json:"other_site,omitempty"`
	OtherPos  string `json:"other_pos,omitempty"`
	OtherText string `json:"other_text,omitempty"`
	OtherIter int64  `json:"other_iter,omitempty"`
	OtherTid  int    `json:"other_tid,omitempty"`
}

// Report collects the violations of one parallel region.
type Report struct {
	Loop    int `json:"loop"`
	Threads int `json:"threads"`
	// Total counts every flagged access; Violations keeps the first
	// occurrence of each distinct (rule, site, other-site) triple, up
	// to the configured cap.
	Total      int         `json:"total_violations"`
	Violations []Violation `json:"violations"`
	// ByRule counts every flagged access per rule (not capped, unlike
	// Violations).
	ByRule map[string]int `json:"by_rule,omitempty"`
}

// vioKey dedups reported violations.
type vioKey struct {
	rule        string
	site, other int
}

func (m *Monitor) newViolation(rule string, ev interp.Access, addr int64, cp int, other *interp.Access) Violation {
	v := Violation{
		Rule: rule, Addr: addr,
		Site: ev.Site, Iter: ev.Iter, Tid: ev.Tid, Copy: cp,
	}
	v.Pos, v.Text = m.siteInfo(ev.Site, ev.Store)
	if other != nil {
		v.OtherSite, v.OtherIter, v.OtherTid = other.Site, other.Iter, other.Tid
		v.OtherPos, v.OtherText = m.siteInfo(other.Site, other.Store)
	}
	return v
}

// siteInfo resolves a site ID against the expanded program's info.
func (m *Monitor) siteInfo(site int, store bool) (pos, text string) {
	pos, text = "-", "?"
	if m.cfg.Info == nil {
		return
	}
	as := m.cfg.Info.Accesses[site]
	if as == nil {
		return
	}
	kind := "read of"
	if store {
		kind = "write to"
	}
	return as.Pos.String(), fmt.Sprintf("%s %q", kind, as.Text)
}

// String renders the report for terminals and logs.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %d (%d threads): %d dependence violation(s), %d distinct\n",
		r.Loop, r.Threads, r.Total, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  [%s] site %d %s at %s (iteration %d, thread %d, copy %d)\n",
			v.Rule, v.Site, v.Text, v.Pos, v.Iter, v.Tid, v.Copy)
		if v.OtherSite != 0 || v.OtherText != "" {
			fmt.Fprintf(&sb, "    conflicts with site %d %s at %s (iteration %d, thread %d)\n",
				v.OtherSite, v.OtherText, v.OtherPos, v.OtherIter, v.OtherTid)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ViolationError aborts a guarded run; the driver catches it and falls
// back to sequential re-execution of the native program.
type ViolationError struct {
	Report *Report
}

func (e *ViolationError) Error() string {
	r := e.Report
	msg := fmt.Sprintf("guard: %d dependence violation(s) detected in parallel loop %d", r.Total, r.Loop)
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		msg += fmt.Sprintf("; first: [%s] site %d %s at %s (iteration %d, thread %d)",
			v.Rule, v.Site, v.Text, v.Pos, v.Iter, v.Tid)
	}
	return msg
}
