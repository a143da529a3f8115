package guard

// Unit tests drive the monitor through its hook interface with
// synthesized access logs. The unsynchronized-conflict rule is only
// testable this way: a real run exhibiting it would be a genuine data
// race on the simulated memory, which the race detector (rightly)
// rejects.

import (
	"testing"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/obs"
)

// runRegion feeds one parallel region through the monitor and returns
// the report the ParallelEnd safe point produced (nil when clean).
func runRegion(t *testing.T, m *Monitor, nt int, evs []interp.Access) (rep *Report) {
	t.Helper()
	h := m.Hooks()
	h.ParallelStart(1, nt)
	for _, ev := range evs {
		h.Observe(ev)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab, ok := r.(interp.Abort)
		if !ok {
			panic(r)
		}
		ve, ok := ab.Err.(*ViolationError)
		if !ok {
			t.Fatalf("abort with %T, want *ViolationError", ab.Err)
		}
		rep = ve.Report
	}()
	h.ParallelEnd(1)
	return nil
}

func access(site int, addr, size int64, tid int, iter int64, store bool) interp.Access {
	return interp.Access{Site: site, Addr: addr, Size: size, Tid: tid, Iter: iter, Store: store}
}

func singleRule(t *testing.T, rep *Report, rule string) Violation {
	t.Helper()
	if rep == nil {
		t.Fatalf("expected a %s violation, got none", rule)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("report has no violations: %+v", rep)
	}
	v := rep.Violations[0]
	if v.Rule != rule {
		t.Fatalf("rule %q, want %q (report: %s)", v.Rule, rule, rep)
	}
	return v
}

func TestConflictCrossThread(t *testing.T) {
	m := New(Config{Threads: 2})
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, true),
		access(11, 5000, 8, 1, 1, false),
	})
	v := singleRule(t, rep, RuleConflict)
	if v.Site != 11 || v.OtherSite != 10 {
		t.Fatalf("site pair (%d, %d), want (11, 10)", v.Site, v.OtherSite)
	}
	if v.Tid != 1 || v.OtherTid != 0 || v.Iter != 1 || v.OtherIter != 0 {
		t.Fatalf("wrong attribution: %+v", v)
	}
}

func TestConflictNeedsWrite(t *testing.T) {
	m := New(Config{Threads: 2})
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, false),
		access(11, 5000, 8, 1, 1, false),
	})
	if rep != nil {
		t.Fatalf("read-read flagged: %s", rep)
	}
}

func TestConflictSameThreadLegal(t *testing.T) {
	m := New(Config{Threads: 2})
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, true),
		access(11, 5000, 8, 0, 2, false),
	})
	if rep != nil {
		t.Fatalf("same-thread program order flagged: %s", rep)
	}
}

func TestConflictOrderedSectionExempt(t *testing.T) {
	m := New(Config{Threads: 2})
	w := access(10, 5000, 8, 0, 0, true)
	w.Ordered = true
	r := access(11, 5000, 8, 1, 1, false)
	r.Ordered = true
	if rep := runRegion(t, m, 2, []interp.Access{w, r}); rep != nil {
		t.Fatalf("ordered-section pair flagged: %s", rep)
	}
	// One side outside the ordered section is not serialized.
	r2 := access(11, 5000, 8, 1, 1, false)
	m2 := New(Config{Threads: 2})
	if rep := runRegion(t, m2, 2, []interp.Access{w, r2}); rep == nil {
		t.Fatalf("half-ordered conflict not flagged")
	}
}

func TestConflictProfiledEdgeTolerated(t *testing.T) {
	g := ddg.NewGraph(1)
	g.AddEdge(10, 11, ddg.Flow, true)
	m := New(Config{Threads: 2, Graphs: map[int]*ddg.Graph{1: g}})
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, true),
		access(11, 5000, 8, 1, 1, false),
	})
	if rep != nil {
		t.Fatalf("profiled carried flow flagged: %s", rep)
	}
	// The reverse direction is not in the graph.
	m2 := New(Config{Threads: 2, Graphs: map[int]*ddg.Graph{1: g}})
	rep = runRegion(t, m2, 2, []interp.Access{
		access(11, 5000, 8, 0, 0, true),
		access(10, 5000, 8, 1, 1, false),
	})
	if rep == nil {
		t.Fatalf("unprofiled conflict direction not flagged")
	}
}

func TestDefKillsHistory(t *testing.T) {
	m := New(Config{Threads: 2})
	def := access(12, 5000, 8, 1, 1, true)
	def.Def = true
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, true),
		def, // iteration-fresh storage reusing the address
		access(11, 5000, 8, 1, 1, true),
	})
	if rep != nil {
		t.Fatalf("redefined storage flagged: %s", rep)
	}
}

func TestForeignCopyBonded(t *testing.T) {
	m := New(Config{Threads: 4})
	m.Hooks().Expand(8000, 16, 0) // copies at 8000, 8016, 8032, 8048
	rep := runRegion(t, m, 4, []interp.Access{
		access(10, 8016+4, 8, 0, 0, true), // thread 0 writing copy 1
	})
	v := singleRule(t, rep, RuleForeignCopy)
	if v.Copy != 1 || v.Tid != 0 {
		t.Fatalf("copy %d thread %d, want copy 1 thread 0", v.Copy, v.Tid)
	}
}

func TestOwnAndSharedCopyLegal(t *testing.T) {
	m := New(Config{Threads: 4})
	m.Hooks().Expand(8000, 16, 0)
	rep := runRegion(t, m, 4, []interp.Access{
		access(10, 8032, 8, 2, 2, true),  // thread 2 in its own copy
		access(11, 8032, 8, 2, 2, false), // reads its own write back
		access(12, 8000, 8, 0, 0, true),  // thread 0 in the shared copy
	})
	if rep != nil {
		t.Fatalf("own/shared copy access flagged: %s", rep)
	}
}

func TestCarriedFlowAcrossCopies(t *testing.T) {
	m := New(Config{Threads: 2})
	m.Hooks().Expand(8000, 16, 0)
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 8000, 8, 0, 0, true),     // iteration 0 writes copy 0
		access(11, 8000+16, 8, 1, 5, false), // iteration 5 reads copy 1: stale
	})
	v := singleRule(t, rep, RuleCarriedFlow)
	if v.OtherSite != 10 || v.Site != 11 {
		t.Fatalf("site pair (%d, %d), want (11, 10)", v.Site, v.OtherSite)
	}
	if v.OtherIter != 0 || v.Iter != 5 {
		t.Fatalf("iteration pair (%d, %d), want (5, 0)", v.Iter, v.OtherIter)
	}
}

func TestStaleCopyRead(t *testing.T) {
	m := New(Config{Threads: 2})
	m.Hooks().Expand(8000, 16, 0)
	rep := runRegion(t, m, 2, []interp.Access{
		access(11, 8000+16, 8, 1, 3, false), // nothing ever wrote the byte
	})
	v := singleRule(t, rep, RuleStaleCopy)
	if v.Copy != 1 {
		t.Fatalf("copy %d, want 1", v.Copy)
	}
	// The same read through the original storage is the pre-loop value.
	m2 := New(Config{Threads: 2})
	m2.Hooks().Expand(8000, 16, 0)
	if rep := runRegion(t, m2, 2, []interp.Access{access(11, 8004, 8, 0, 0, false)}); rep != nil {
		t.Fatalf("copy-0 pre-loop read flagged: %s", rep)
	}
}

func TestPrivatePatternLegal(t *testing.T) {
	// The canonical thread-private pattern: every iteration writes its
	// copy before reading it. No rule may fire.
	m := New(Config{Threads: 2})
	m.Hooks().Expand(8000, 16, 0)
	var evs []interp.Access
	for iter := int64(0); iter < 8; iter++ {
		tid := int(iter / 4) // static chunks 0-3 and 4-7
		base := int64(8000 + tid*16)
		evs = append(evs,
			access(10, base, 8, tid, iter, true),
			access(11, base, 8, tid, iter, false))
	}
	if rep := runRegion(t, m, 2, evs); rep != nil {
		t.Fatalf("thread-private pattern flagged: %s", rep)
	}
}

func TestCanonicalInterleaved(t *testing.T) {
	// Interleaved layout: element i of copy t at base + (i*nt + t)*esz.
	notes := []note{{base: 4000, span: 32, esz: 8}} // 4 elements, 2 copies
	nt := 2
	var c noteCursor
	c.reset()
	for _, tc := range []struct {
		addr  int64
		canon int64
		copy  int
	}{
		{4000, 4000, 0}, // elem 0 copy 0
		{4008, 4000, 1}, // elem 0 copy 1
		{4016, 4008, 0}, // elem 1 copy 0
		{4024, 4008, 1}, // elem 1 copy 1
		{4060, 4028, 1}, // last byte: elem 3 copy 1, offset 4
	} {
		canon, cp, ok := c.at(notes, nt, tc.addr)
		if !ok || canon != tc.canon || cp != tc.copy {
			t.Fatalf("at(%d) = (%d, %d, %v), want (%d, %d, true)",
				tc.addr, canon, cp, ok, tc.canon, tc.copy)
		}
	}
	if _, _, ok := c.at(notes, nt, 4064); ok {
		t.Fatalf("address past the expanded range canonicalized")
	}
	if _, _, ok := c.at(notes, nt, 3999); ok {
		t.Fatalf("address before the expanded range canonicalized")
	}
	// Whole accesses: one element of one copy maps in one step; one
	// that crosses an element or the structure's edge goes byte by byte.
	for _, tc := range []struct {
		addr, size int64
		mode       int
		canon      int64
		copy       int
	}{
		{4024, 8, inside, 4008, 1},
		{4026, 4, inside, 4010, 1},
		{4004, 8, mixed, 0, 0}, // elem 0 of copy 0, then of copy 1
		{3996, 8, mixed, 0, 0}, // reaches into the structure
		{4060, 8, mixed, 0, 0}, // runs past its end
		{3900, 100, outside, 0, 0},
		{4064, 16, outside, 0, 0},
	} {
		mode, canon, cp := c.resolve(notes, nt, tc.addr, tc.size)
		if mode != tc.mode || canon != tc.canon || cp != tc.copy {
			t.Fatalf("resolve(%d, %d) = (%d, %d, %d), want (%d, %d, %d)",
				tc.addr, tc.size, mode, canon, cp, tc.mode, tc.canon, tc.copy)
		}
	}
}

func TestNoteSupersedeAndFree(t *testing.T) {
	m := New(Config{Threads: 2})
	h := m.Hooks()
	h.Expand(8000, 16, 0)
	h.Expand(8008, 8, 0) // overlapping re-allocation supersedes
	if len(m.notes) != 1 || m.notes[0].base != 8008 {
		t.Fatalf("supersede failed: %+v", m.notes)
	}
	h.Free(8008)
	if len(m.notes) != 0 {
		t.Fatalf("free left notes: %+v", m.notes)
	}
}

func TestViolationTotalAndDedup(t *testing.T) {
	m := New(Config{Threads: 2, MaxViolations: 4})
	var evs []interp.Access
	for i := int64(0); i < 10; i++ {
		evs = append(evs,
			access(10, 6000+i*8, 8, 0, 0, true),
			access(11, 6000+i*8, 8, 1, 1, false))
	}
	rep := runRegion(t, m, 2, evs)
	if rep == nil {
		t.Fatalf("no report")
	}
	if rep.Total != 10 {
		t.Fatalf("total %d, want 10", rep.Total)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("distinct %d, want 1 (same site pair)", len(rep.Violations))
	}
}

func TestReplayCounters(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(0)}
	m := New(Config{Threads: 2, Obs: o})
	m.Hooks().Expand(0x50000, 16, 0)
	def := access(14, 0x42000, 16, 1, 1, true)
	def.Def = true
	evs := []interp.Access{
		access(10, 5000, 4, 0, 0, true),     // a store stamps its page
		access(11, 5004, 4, 0, 0, false),    // replayed: its page holds a store
		access(15, 0x50004, 4, 0, 0, false), // replayed: a note overlaps its page
		access(12, 0x40000, 8, 1, 1, false), // dropped: nothing writes its page
		def,                                 // a definition stamps its page
		access(13, 0x41ffc, 8, 1, 1, false), // replayed: its second page is stamped
		access(16, 0x40ffc, 4, 1, 1, false), // dropped: the page's last bytes
	}
	for region := 1; region <= 2; region++ {
		if rep := runRegion(t, m, 2, evs); rep != nil {
			t.Fatalf("region %d flagged: %s", region, rep)
		}
		logged := o.Metrics.Counter("guard.events_logged").Value()
		replayed := o.Metrics.Counter("guard.events_replayed").Value()
		if logged != int64(7*region) || replayed != int64(5*region) {
			t.Fatalf("region %d: logged %d replayed %d, want %d and %d",
				region, logged, replayed, 7*region, 5*region)
		}
	}
	var got []obs.Event
	for _, ev := range o.Trace.Events() {
		if ev.Name == "guard-replay" {
			got = append(got, ev)
		}
	}
	if len(got) != 2 || got[1].V1 != 5 || got[1].V2 != 2 {
		t.Fatalf("guard-replay events %+v, want two with 5 replayed and 2 dropped", got)
	}
}

// TestWideAccessIsOneRecord: an access whose address, size or site does
// not fit the record keeps all three in the side table, stays one
// record, and a violation names its full site.
func TestWideAccessIsOneRecord(t *testing.T) {
	m := New(Config{Threads: 2})
	h := m.Hooks()
	h.ParallelStart(1, 2)
	big := access(10, 0x100000, recWide+7, 0, 0, false)
	high := access(11, 1<<32+8, 4, 0, 0, true)
	h.Observe(big)
	h.Observe(high)
	m.mergeLogs()
	for pos, want := range []interp.Access{big, high} {
		if got := m.accessAt(int32(pos + 1)); got != want {
			t.Fatalf("wide access read back as %+v, want %+v", got, want)
		}
	}
	h.ParallelCancel(1)

	const site = 1<<40 + 3
	rep := runRegion(t, m, 2, []interp.Access{
		access(10, 5000, 8, 0, 0, true),
		access(site, 5000, 8, 1, 1, false),
		big, // dropped by the page filter: nothing writes its pages
	})
	v := singleRule(t, rep, RuleConflict)
	if rep.Total != 1 || v.Site != site || v.OtherSite != 10 {
		t.Fatalf("report %+v, want one conflict of site %d with site 10", rep, site)
	}
	if m.replayed != 2 {
		t.Fatalf("replayed %d accesses, want 2", m.replayed)
	}
}
