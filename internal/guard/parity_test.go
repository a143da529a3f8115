package guard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/shadow"
)

// Address areas of the synthesized regions. They are small, so
// accesses of different threads and iterations collide.
const (
	areaShared   = 0x10000           // scalars and arrays written and read
	areaCross    = 0x20000           // accesses straddling a page boundary
	areaReadOnly = 0x40000           // two pages no store touches
	areaNotes    = 0x80000 - 3*0x100 // expanded structures, the first near a page end
	areaHigh     = 1<<32 - 24        // shared data straddling the record's address range

	wideSite = int64(1)<<31 + 1<<12 // a site beyond int32
)

// fits reports whether an access fits a packed record; the others go
// to the side table.
func fits(ev interp.Access) bool {
	return ev.Addr < 1<<32 && ev.Size < recWide && ev.Site <= recMaxSite
}

// synthNote is one expanded structure of a synthesized region.
type synthNote struct{ base, span, esz int64 }

// addr returns the concrete address of byte off of element-space
// offset in copy cp of n.
func (n synthNote) addr(nt int, cp int, off int64) int64 {
	if n.esz == 0 {
		return n.base + int64(cp)*n.span + off%n.span
	}
	elem, in := (off%n.span)/n.esz, off%n.esz
	return n.base + (elem*int64(nt)+int64(cp))*n.esz + in
}

// synthRegion draws one region: the notes announced before it and the
// per-thread logs in execution order.
type synthRegion struct {
	notes []synthNote
	free  []int64 // note bases freed before the region
	logs  [][]interp.Access
}

type synth struct {
	rng   *rand.Rand
	nt    int
	notes []synthNote // notes announced so far

	// A disciplined region follows the expansion's contract, so most
	// of its accesses pass every check: a thread touches only its own
	// copies and reads only bytes its iteration wrote there, and it
	// writes shared data only inside the ordered section.
	disciplined bool
	wrote       []int64 // own-copy addresses the current iteration stored

	// high puts half the shared data around 4 GiB, where addresses
	// outgrow the record's field; few monitors draw it, because the
	// shadows' flat page tables then reach that far.
	high bool
}

func (g *synth) size() int64 {
	switch r := g.rng.Intn(20); {
	case r < 12:
		return 4
	case r < 14:
		return 1
	case r < 16:
		return 8
	case r < 17:
		return 2
	case r < 18:
		return 3
	case r < 19:
		return 16
	case g.rng.Intn(40) == 0:
		return recWide - 1 + g.rng.Int63n(3) // the largest packed size and past it
	}
	return int64(5 + g.rng.Intn(40))
}

// access draws one access of thread tid in iteration iter.
func (g *synth) access(tid int, iter int64, ordered bool) interp.Access {
	rng := g.rng
	ev := interp.Access{Site: 1 + rng.Intn(12), Tid: tid, Iter: iter, Ordered: ordered, Size: g.size()}
	if rng.Intn(200) == 0 {
		// The largest packed site, and sites past the field and int32.
		ev.Site = []int{recMaxSite, recMaxSite + 1, int(wideSite)}[rng.Intn(3)] + rng.Intn(2)
	}
	kind := rng.Intn(100)
	ev.Store = kind < 38
	ev.Def = kind >= 95
	switch where := rng.Intn(100); {
	case where < 40 && len(g.notes) > 0:
		n := g.notes[rng.Intn(len(g.notes))]
		cp := tid
		switch r := rng.Intn(10); {
		case g.disciplined:
		case r < 2:
			cp = 0
		case r < 3:
			cp = rng.Intn(g.nt)
		}
		off := rng.Int63n(n.span)
		ev.Addr = n.addr(g.nt, cp, off)
		if g.disciplined {
			// Stay inside one element of the thread's own copy.
			unit := n.span
			if n.esz > 0 {
				unit = n.esz
			}
			ev.Size = min(ev.Size, unit-off%unit)
		}
		if g.disciplined && !ev.Store {
			if len(g.wrote) == 0 {
				ev.Store = true
			} else {
				ev.Addr, ev.Size = g.wrote[rng.Intn(len(g.wrote))], 1
			}
		}
		if ev.Store && !ev.Def {
			for b := int64(0); b < ev.Size; b++ {
				g.wrote = append(g.wrote, ev.Addr+b)
			}
		}
		if ev.Def && rng.Intn(3) == 0 {
			// The expanded allocation's own definition event covers
			// every copy and keeps the note.
			ev.Addr, ev.Size = n.base, n.span*int64(g.nt)
		}
	case where < 70 && !(g.disciplined && !ordered):
		ev.Addr = areaShared + rng.Int63n(48)
		if g.high && rng.Intn(2) == 0 {
			ev.Addr = areaHigh + rng.Int63n(48)
		}
	case where < 80:
		ev.Addr = areaCross - 1 - rng.Int63n(6)
		if g.disciplined {
			ev.Store, ev.Def = false, false
		}
	default:
		ev.Addr = areaReadOnly + rng.Int63n(2*shadow.PageSize-64)
		if ev.Store || ev.Def {
			// Most regions keep these pages read-only; a few write
			// one of them, which must bring its loads back.
			if g.disciplined || rng.Intn(8) != 0 {
				ev.Store, ev.Def = false, false
			}
		}
	}
	if !ev.Store && ev.Def {
		ev.Store = true
	}
	return ev
}

// region draws the next region of a monitor.
func (g *synth) region() synthRegion {
	rng := g.rng
	var r synthRegion
	if len(g.notes) > 0 && rng.Intn(4) == 0 {
		i := rng.Intn(len(g.notes))
		r.free = append(r.free, g.notes[i].base)
		g.notes = append(g.notes[:i], g.notes[i+1:]...)
	}
	if len(g.notes) == 0 || rng.Intn(3) == 0 {
		g.notes = g.notes[:0]
		base := int64(areaNotes) + rng.Int63n(16)
		for k := rng.Intn(4); k > 0; k-- {
			n := synthNote{base: base}
			if rng.Intn(2) == 0 {
				n.span = 1 + rng.Int63n(48) // bonded
			} else {
				n.esz = []int64{1, 2, 4, 8}[rng.Intn(4)]
				n.span = n.esz * (1 + rng.Int63n(12)) // interleaved
			}
			g.notes = append(g.notes, n)
			r.notes = append(r.notes, n)
			base += n.span*int64(g.nt) + rng.Int63n(24)
		}
	}

	// Iterations and their placement on threads.
	iters := 1 + rng.Intn(24)
	owner := make([]int, iters)
	switch rng.Intn(4) {
	case 0: // static chunks
		for i := range owner {
			owner[i] = i * g.nt / iters
		}
	case 1: // round robin
		for i := range owner {
			owner[i] = i % g.nt
		}
	default: // stolen ranges: any thread, any order
		for i := range owner {
			owner[i] = rng.Intn(g.nt)
		}
	}
	order := make([][]int64, g.nt)
	for i, t := range owner {
		order[t] = append(order[t], int64(i))
	}
	for _, its := range order {
		if len(its) > 1 && rng.Intn(3) == 0 {
			rng.Shuffle(len(its), func(i, j int) { its[i], its[j] = its[j], its[i] })
		}
	}
	doacross := rng.Intn(3) == 0
	g.disciplined = rng.Intn(2) == 0
	long := rng.Intn(200) == 0 // one iteration's log spans chunks
	// Iterations of a blocky region log from half an order-index block
	// to a few blocks each, so their segments straddle block edges.
	blocky := rng.Intn(10) == 0
	r.logs = make([][]interp.Access, g.nt)
	for t, its := range order {
		for _, it := range its {
			g.wrote = g.wrote[:0]
			k := rng.Intn(14)
			if blocky {
				k = ordBlock/2 + rng.Intn(3*ordBlock)
			}
			if long {
				k, long = logChunkCap+rng.Intn(logChunkCap), false
			}
			lo, hi := k, k
			if doacross && k > 0 {
				lo = rng.Intn(k)
				hi = lo + rng.Intn(k-lo+1)
			}
			for j := 0; j < k; j++ {
				r.logs[t] = append(r.logs[t], g.access(t, it, j >= lo && j < hi))
			}
		}
	}
	return r
}

// graph draws an optional profiled graph over the synthesized sites.
func graph(rng *rand.Rand) map[int]*ddg.Graph {
	if rng.Intn(5) != 0 {
		return nil
	}
	g := ddg.NewGraph(1)
	for k := rng.Intn(20); k > 0; k-- {
		g.AddEdge(1+rng.Intn(12), 1+rng.Intn(12), []ddg.DepKind{ddg.Flow, ddg.Anti, ddg.Output}[rng.Intn(3)], true)
	}
	return map[int]*ddg.Graph{1: g}
}

// runLogs feeds per-thread logs through the monitor's hooks as one
// region and returns the report of its safe point and the number of
// records the region kept in its side tables.
func runLogs(m *Monitor, nt int, logs [][]interp.Access) (rep *Report, wide int) {
	h := m.Hooks()
	h.ParallelStart(1, nt)
	for _, log := range logs {
		for _, ev := range log {
			h.Observe(ev)
		}
	}
	for _, l := range m.tlogs {
		wide += len(l.wide)
	}
	defer func() {
		if r := recover(); r != nil {
			rep = r.(interp.Abort).Err.(*ViolationError).Report
		}
	}()
	h.ParallelEnd(1)
	return nil, wide
}

// TestReplayMatchesOracle feeds seeded synthesized regions to the
// monitor and to the oracle and requires identical reports: totals,
// per-rule counts, and the kept violations in order with their
// addresses, copies and conflicting accesses. The regions cover 1–8
// threads; bonded and interleaved notes, freed and superseded notes,
// and definitions that drop them; ordered sections; static, round-robin
// and stolen placements with a thread's iterations out of order;
// unaligned and page-crossing accesses; read-only pages; addresses,
// sizes and sites at and past the record's fields, which must take the
// side table; segments shorter and longer than an order-index block;
// and logs spanning several chunks.
func TestReplayMatchesOracle(t *testing.T) {
	const monitors = 5000 // 1-3 regions each
	regions, violating, filtered := 0, 0, 0
	rules := map[string]int{}
	var wideAddr, wideSize, wideSite, shortSegs, longSegs int
	for seed := int64(0); seed < monitors; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nt := 1 + rng.Intn(8)
		cfg := Config{Threads: nt, Graphs: graph(rng), MaxViolations: []int{0, 1, 3}[rng.Intn(3)]}
		m := New(cfg)
		var o oracle
		g := &synth{rng: rng, nt: nt, high: rng.Intn(150) == 0}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			r := g.region()
			h := m.Hooks()
			for _, b := range r.free {
				h.Free(b)
			}
			for _, n := range r.notes {
				h.Expand(n.base, n.span, n.esz)
			}
			got, wide := runLogs(m, nt, r.logs)
			want := o.replay(m, r.logs)
			regions++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d region %d: reports differ\nreplay: %s\noracle: %s",
					seed, regions, describe(got), describe(want))
			}
			unfit := 0
			for _, l := range r.logs {
				for i, ev := range l {
					if !fits(ev) {
						unfit++
					}
					wideAddr += b2i(ev.Addr >= 1<<32)
					wideSize += b2i(ev.Size >= recWide)
					wideSite += b2i(ev.Site > recMaxSite)
					if i == 0 || ev.Iter != l[i-1].Iter {
						n := 1
						for i+n < len(l) && l[i+n].Iter == ev.Iter {
							n++
						}
						shortSegs += b2i(n < ordBlock)
						longSegs += b2i(n > ordBlock)
					}
				}
			}
			if wide != unfit {
				t.Fatalf("seed %d region %d: %d records in the side tables, want %d", seed, regions, wide, unfit)
			}
			if got != nil {
				violating++
				for rule := range got.ByRule {
					rules[rule]++
				}
			}
			logged := 0
			for _, l := range r.logs {
				logged += len(l)
			}
			if m.replayed < int64(logged) {
				filtered++
			}
		}
	}
	t.Logf("%d regions: %d violating %v, %d with filtered loads", regions, violating, rules, filtered)
	if regions < 10000 {
		t.Fatalf("only %d regions", regions)
	}
	// The generator must exercise every rule, clean regions and the
	// page filter, or parity shows little.
	for _, rule := range []string{RuleCarriedFlow, RuleStaleCopy, RuleForeignCopy, RuleConflict} {
		if rules[rule] < regions/100 {
			t.Errorf("rule %s fired in only %d regions", rule, rules[rule])
		}
	}
	if violating > regions*9/10 || filtered < regions/10 {
		t.Errorf("degenerate mix: %d violating, %d filtered of %d", violating, filtered, regions)
	}
	// Every packed field must overflow, and segments must fall on both
	// sides of an order-index block.
	t.Logf("side-table accesses by address %d, size %d, site %d; segments of under %d accesses %d, over %d",
		wideAddr, wideSize, wideSite, ordBlock, shortSegs, longSegs)
	if min(wideAddr, wideSize, wideSite) < 100 || min(shortSegs, longSegs) < 1000 {
		t.Error("the generator does not cover the packed fields' limits or the order index's blocks")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func describe(r *Report) string {
	if r == nil {
		return "clean"
	}
	return fmt.Sprintf("total %d by rule %v\n%s", r.Total, r.ByRule, r)
}
