package guard

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/shadow"
)

// rawCell is the raw shadow's state for one byte: the 1-based merged
// positions of the last write and last read that touched it, 0 meaning
// none since the last definition. wm tracks the write that physically
// survives at the byte under same-thread out-of-order execution: among
// a run of writes by one thread it is the one with the latest
// execution order (largest seq), which under work stealing need not be
// the last one in iteration order. ep tags the replay epoch the
// positions belong to: a cell written in an earlier epoch reads as
// empty, which lets the shadows persist across safe points without
// ever being cleared.
type rawCell struct {
	w, r, wm int32
	ep       uint32
}

// canCell is the canonical shadow's state for one byte: the last write
// into any copy of it, epoch-tagged like rawCell.
type canCell struct {
	w  int32
	ep uint32
}

// mergeLogs rebuilds the sequential schedule from the per-thread logs
// without moving a record. It gathers every thread's segment headers
// into m.segs, sorts them by (iteration, thread, per-thread order) —
// ties on iteration go to the lowest thread id — gives each segment
// the merged position of its first record, and fills the order index
// m.ord with the segment of every ordBlock-th merged position. The
// per-thread order seq records the thread's true program order: under
// work stealing a thread may execute its iterations out of iteration
// order, and the replay's same-thread serialization excuse must check
// the order the thread actually ran, not the order the merge
// reconstructs. It returns the number of records.
func (m *Monitor) mergeLogs() int {
	segs := m.segs[:0]
	total := 0
	for t := range m.tlogs {
		l := &m.tlogs[t]
		n := l.count()
		for i, s := range l.segs {
			end := int32(n)
			if i+1 < len(l.segs) {
				end = l.segs[i+1].start
			}
			s.n, s.tid, s.seq = end-s.start, int32(t), int32(i)
			segs = append(segs, s)
		}
		total += n
	}
	slices.SortFunc(segs, func(a, b seg) int {
		if c := cmp.Compare(a.iter, b.iter); c != 0 {
			return c
		}
		if c := cmp.Compare(a.tid, b.tid); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	ord := m.ord[:0]
	pos := int32(0)
	for i := range segs {
		s := &segs[i]
		s.pos = pos
		pos += s.n
		// ord[k] is the segment holding position k<<ordBits; every
		// block start below pos not indexed yet lies in segment i.
		for int32(len(ord))<<ordBits < pos {
			ord = append(ord, int32(i))
		}
	}
	m.segs, m.ord = segs, ord
	return total
}

// The order index holds one entry per ordBlock merged positions.
const (
	ordBits  = 6
	ordBlock = 1 << ordBits
)

// segAt returns the segment of 1-based merged position pos among segs,
// whose order index is ord: the index names the segment of the first
// position of pos's block, and the segments after it, sorted by
// position, are scanned forward.
func segAt(segs []seg, ord []int32, pos int32) *seg {
	p := pos - 1
	i := ord[p>>ordBits]
	for segs[i].pos+segs[i].n <= p {
		i++
	}
	return &segs[i]
}

// records returns segment s's records.
func (m *Monitor) records(s *seg) []rec {
	off := s.start & (logChunkCap - 1)
	return m.tlogs[s.tid].chunk(s.start)[off : off+s.n]
}

// recAt returns the record at 1-based merged position pos, which lies
// in segment s, with its log and thread-local index.
func (m *Monitor) recAt(s *seg, pos int32) (*tlog, int32, rec) {
	i := s.start + pos - 1 - s.pos
	l := &m.tlogs[s.tid]
	return l, i, l.chunk(i)[i&(logChunkCap-1)]
}

// unpack returns the address, site and size of thread-local record i.
func (l *tlog) unpack(i int32, r rec) (addr int64, site int, size int64) {
	if r.size() == recWide {
		w := l.wide[i]
		return w.addr, w.site, w.size
	}
	return int64(r.addr), r.site(), r.size()
}

// accessAt rebuilds the access at 1-based merged position pos for a
// violation report.
func (m *Monitor) accessAt(pos int32) interp.Access {
	s := segAt(m.segs, m.ord, pos)
	l, i, r := m.recAt(s, pos)
	addr, site, size := l.unpack(i, r)
	return interp.Access{Site: site, Addr: addr, Size: size, Tid: int(s.tid), Iter: s.iter,
		Store: r.meta&recStore != 0, Def: r.meta&recDef != 0, Ordered: r.meta&recOrdered != 0}
}

// stampWritten is the replay's page filter pre-pass: it stamps with ep
// every page that a store or definition of the region touches and
// every page a region-start note overlaps.
func (m *Monitor) stampWritten(notes []note, ep uint32) {
	for t := range m.tlogs {
		l := &m.tlogs[t]
		for ci, c := range l.full {
			m.stampChunk(l, int32(ci*logChunkCap), c, ep)
		}
		m.stampChunk(l, int32(len(l.full)*logChunkCap), l.cur, ep)
	}
	for _, n := range notes {
		m.stamp(n.base, m.total(n), ep)
	}
}

// stampChunk stamps the pages of the stores and definitions of chunk c,
// whose first record has thread-local index base.
func (m *Monitor) stampChunk(l *tlog, base int32, c []rec, ep uint32) {
	for i, r := range c {
		if r.meta&(recStore|recDef) == 0 {
			continue
		}
		addr, _, size := l.unpack(base+int32(i), r)
		m.stamp(addr, size, ep)
	}
}

// stamp marks the pages of [addr, addr+size) as written in epoch ep.
func (m *Monitor) stamp(addr, size int64, ep uint32) {
	if size <= 0 {
		return
	}
	first, last := addr>>shadow.PageBits, (addr+size-1)>>shadow.PageBits
	if n := last + 1; n > int64(len(m.written)) {
		m.written = append(m.written, make([]uint32, n-int64(len(m.written)))...)
	}
	for p := first; p <= last; p++ {
		m.written[p] = ep
	}
}

// touched reports whether any page of [addr, addr+size) is stamped
// with ep.
func (m *Monitor) touched(addr, size int64, ep uint32) bool {
	for p, last := addr>>shadow.PageBits, (addr+size-1)>>shadow.PageBits; p <= last; p++ {
		if p < int64(len(m.written)) && m.written[p] == ep {
			return true
		}
	}
	return false
}

// replay checks one region's logs and returns a report, or nil when
// the region is violation-free. Everything it reads from the logs is
// copied into the report before it returns, so the caller may recycle
// the log chunks immediately.
//
// Before the replay proper, stampWritten marks the pages the region's
// stores and definitions touch and those its region-start notes
// overlap, and the replay skips every load on no marked page. Such a
// load can fail no check: its raw cells hold no in-region write, so it
// has no flow source and no surviving-write mismatch, and it lies in
// no expanded structure, so no canonical rule applies. And it feeds
// none: the only thing it leaves is its reader stamp in the raw
// shadow, which only a later store of the same byte reads, and no
// store touches its page. Definitions only ever drop notes, so no byte
// of such a page enters an expanded structure later in the replay.
func (m *Monitor) replay() *Report {
	total := m.mergeLogs()
	m.replayed = 0
	if total == 0 {
		return nil
	}
	m.epoch++
	if m.epoch == 0 {
		// Epoch wrap: drop the pages so a stale tag cannot collide.
		m.raw.Reset()
		m.can.Reset()
		clear(m.written)
		m.epoch = 1
	}
	r := replayer{m: m, nt: m.cfg.Threads, ep: m.epoch, g: m.cfg.Graphs[m.loop],
		notes: append(m.noteBuf[:0], m.regionNotes...), segs: m.segs, ord: m.ord}
	r.last = &r.segs[0]
	r.cur.reset()
	m.stampWritten(r.notes, r.ep)
	replayed := int64(0)
	for si := range r.segs {
		s := &r.segs[si]
		l := &m.tlogs[s.tid]
		e := event{first: s.pos + 1, tid: s.tid, iter: s.iter, seq: s.seq}
		for j, rc := range m.records(s) {
			e.addr, e.site, e.size = int64(rc.addr), rc.site(), rc.size()
			if e.size == recWide {
				e.addr, e.site, e.size = l.unpack(s.start+int32(j), rc)
			}
			if rc.meta&(recStore|recDef) == 0 && !m.touched(e.addr, e.size, r.ep) {
				continue
			}
			replayed++
			e.id = s.pos + int32(j) + 1
			e.store, e.ordered = rc.meta&recStore != 0, rc.meta&recOrdered != 0
			if rc.meta&recDef != 0 {
				r.define(&e)
			} else {
				r.access(&e)
			}
		}
	}
	m.replayed = replayed
	m.noteBuf = r.notes[:0]
	return r.rep
}

// replayer is one safe point's replay state.
type replayer struct {
	m     *Monitor
	segs  []seg
	ord   []int32
	last  *seg   // the segment seg found last
	notes []note // the region-start notes, minus those definitions dropped
	cur   noteCursor
	nt    int
	ep    uint32
	g     *ddg.Graph
	rep   *Report // nil until the first violation
	seen  map[vioKey]bool
}

// event is the access being replayed.
type event struct {
	id         int32 // 1-based merged position
	first      int32 // position of its segment's first access
	tid, seq   int32
	iter       int64
	addr, size int64
	site       int
	store      bool
	ordered    bool
}

func (e *event) access() interp.Access {
	return interp.Access{Site: e.site, Addr: e.addr, Size: e.size, Tid: int(e.tid),
		Iter: e.iter, Store: e.store, Ordered: e.ordered}
}

// seg returns the segment of 1-based merged position pos.
func (r *replayer) seg(pos int32) *seg {
	if s := r.last; uint32(pos-1-s.pos) < uint32(s.n) {
		return s
	}
	r.last = segAt(r.segs, r.ord, pos)
	return r.last
}

// define replays a definition of fresh storage: it kills the byte
// history and any stale expansion note the addresses shadow.
func (r *replayer) define(e *event) {
	raw, can, ep := &r.m.raw, &r.m.can, r.ep
	end := e.addr + e.size
	for a := e.addr; a < end; {
		cells := raw.Span(a, end)
		for k := range cells {
			cells[k] = rawCell{ep: ep}
		}
		a += int64(len(cells))
	}
	switch mode, c0, _ := r.cur.resolve(r.notes, r.nt, e.addr, e.size); mode {
	case inside:
		for a, cend := c0, c0+e.size; a < cend; {
			cells := can.Span(a, cend)
			for k := range cells {
				cells[k] = canCell{ep: ep}
			}
			a += int64(len(cells))
		}
	case mixed:
		for a := e.addr; a < end; a++ {
			if cn, _, ok := r.cur.at(r.notes, r.nt, a); ok {
				can.Page(cn)[cn&shadow.PageMask] = canCell{ep: ep}
			}
		}
	}
	r.notes = dropStale(r.notes, r.nt, e.addr, e.size)
	r.cur.reset()
}

// access replays a load or store byte by byte. A rule fires at most
// once per access: byte-granular scanning would otherwise
// multiply-count a single bad access.
func (r *replayer) access(e *event) {
	raw, can, ep := &r.m.raw, &r.m.can, r.ep
	mode, c0, cp0 := r.cur.resolve(r.notes, r.nt, e.addr, e.size)
	var flagged [4]bool
	rpn, cpn := int64(-1), int64(-1)
	var rpg *shadow.Page[rawCell]
	var cpg *shadow.Page[canCell]
	end := e.addr + e.size
	for a := e.addr; a < end; a++ {
		if pn := a >> shadow.PageBits; pn != rpn {
			rpn, rpg = pn, raw.Page(a)
		}
		rc := &rpg[a&shadow.PageMask]
		if rc.ep != ep {
			*rc = rawCell{ep: ep}
		}
		var cn int64
		cp, inExp := 0, false
		switch mode {
		case inside:
			cn, cp, inExp = c0+a-e.addr, cp0, true
		case mixed:
			cn, cp, inExp = r.cur.at(r.notes, r.nt, a)
		}

		// Raw shadow: unsynchronized conflicts (V4) — cross-thread
		// pairs no ordered section serializes, and same-thread pairs a
		// stolen out-of-order execution failed to serialize.
		if e.store {
			if rc.w != 0 {
				r.check(e, rc.w, kindOutput, a, inExp, &flagged)
			}
			if rc.r != 0 {
				r.check(e, rc.r, kindAnti, a, inExp, &flagged)
			}
		} else if rc.w != 0 {
			r.check(e, rc.w, kindFlow, a, inExp, &flagged)
			// The sequential data source rc.w may have executed in
			// order, yet an iteration-earlier write of the same thread
			// executed after it and physically holds the byte when this
			// read runs.
			if !flagged[3] && rc.wm != 0 && rc.wm != rc.w && rc.wm < e.first {
				pm, pw := r.seg(rc.wm), r.seg(rc.w)
				if pm.tid == e.tid && pw.tid == e.tid && pm.iter != e.iter && pm.seq < e.seq {
					flagged[3] = true
					r.record(RuleConflict, e, a, -1, rc.wm)
				}
			}
		}

		// Canonical shadow: expansion-semantics checks (V1–V3).
		if inExp {
			if pn := cn >> shadow.PageBits; pn != cpn {
				cpn, cpg = pn, can.Page(cn)
			}
			cc := &cpg[cn&shadow.PageMask]
			if cc.ep != ep {
				*cc = canCell{ep: ep}
			}
			if cp != 0 && cp != int(e.tid) && !flagged[2] {
				// V3: a copy belonging to another thread.
				flagged[2] = true
				r.record(RuleForeignCopy, e, a, cp, cc.w)
			}
			if e.store {
				cc.w = e.id
			} else {
				switch {
				case cc.w == rc.w:
					// The sequential data source is the very write this
					// copy holds (or both are pre-region and the read goes
					// through the original storage): correct. cc.w == 0 ==
					// rc.w with cp != 0 falls through below.
					if cc.w == 0 && cp != 0 && !flagged[1] {
						// V2: sequentially this read would see pre-loop
						// data, but copy cp started zero-filled.
						flagged[1] = true
						r.record(RuleStaleCopy, e, a, cp, 0)
					}
				case cc.w != 0:
					// V1: sequentially the read's data source is a write
					// that landed in a different copy — a dependence the
					// thread-private classification ruled out.
					if !flagged[0] {
						flagged[0] = true
						r.record(RuleCarriedFlow, e, a, cp, cc.w)
					}
				}
			}
		}

		// Update the raw shadow after the checks. wm keeps the write
		// that physically survives: within one thread the larger seq
		// executed later (equal seq = same segment, where replay order
		// is execution order); a write from another thread has no
		// comparable order and just becomes the new baseline.
		if e.store {
			if rc.wm == 0 || rc.wm >= e.first {
				rc.wm = e.id
			} else if pm := r.seg(rc.wm); pm.tid != e.tid || pm.seq <= e.seq {
				rc.wm = e.id
			}
			rc.w = e.id
		} else {
			rc.r = e.id
		}
	}
}

// check tests the raw-shadow pair of access e and the earlier access
// at position prev on byte a for an unsynchronized conflict.
func (r *replayer) check(e *event, prev int32, kind int, a int64, inExp bool, flagged *[4]bool) {
	if flagged[3] || prev >= e.first {
		return // prev is in e's segment, so in its iteration
	}
	p := r.seg(prev)
	if p.iter == e.iter {
		return // same iteration: executed by one thread
	}
	if p.tid == e.tid {
		if p.seq < e.seq {
			return // the thread really executed p first
		}
		// Out of iteration order: a stolen range ran this thread's
		// later iteration first. A write-write pair inside an expanded
		// structure is still harmless — the classification proved the
		// structure dead after the region, and a read observing the
		// wrong survivor is caught through the read's own checks — but
		// a pair involving a read saw (or exposed) a wrong value, and
		// live-out shared state depends on write order.
		if kind == kindOutput && inExp {
			return
		}
	} else if e.ordered || r.g != nil {
		l, i, pr := r.m.recAt(p, prev)
		if e.ordered && pr.meta&recOrdered != 0 {
			return // both inside the ordered section: serialized
		}
		if _, site, _ := l.unpack(i, pr); r.g != nil && edgeProfiled(r.g, site, e.site, kind) {
			return // a dependence the profile already knew
		}
	}
	flagged[3] = true
	r.record(RuleConflict, e, a, -1, prev)
}

// record counts one violation of rule by access e at byte addr (copy
// cp) and keeps the first occurrence of each distinct (rule, site,
// other site) triple; other is the merged position of the conflicting
// access, 0 when there is none.
func (r *replayer) record(rule string, e *event, addr int64, cp int, other int32) {
	if r.rep == nil {
		r.rep = &Report{Loop: r.m.loop, Threads: r.m.nthreads, ByRule: map[string]int{}}
		r.seen = map[vioKey]bool{}
	}
	rep := r.rep
	rep.Total++
	rep.ByRule[rule]++
	key := vioKey{rule: rule, site: e.site}
	var op *interp.Access
	if other != 0 {
		oa := r.m.accessAt(other)
		key.other, op = oa.Site, &oa
	}
	if r.seen[key] || len(rep.Violations) >= r.m.cfg.MaxViolations {
		return
	}
	r.seen[key] = true
	rep.Violations = append(rep.Violations, r.m.newViolation(rule, e.access(), addr, cp, op))
}

// How the bytes of one access map onto the expanded structures.
const (
	outside = iota // no byte lies in a note
	inside         // byte b lies in copy cp at canonical address canon+b
	mixed          // resolve byte by byte
)

// noteCursor resolves addresses against the replay's notes (sorted by
// base and disjoint), starting from the note the last address hit. An
// interval is the answer for one range of addresses: i is the last
// note with base <= a for every a in [lo, hi). The cursor keeps the
// last two, so accesses alternating between two structures, or
// between a structure and plain memory, need no search.
type noteCursor struct {
	cur, prev interval
}

type interval struct {
	i      int
	lo, hi int64
}

// reset forgets the cached intervals; call it whenever the notes change.
func (c *noteCursor) reset() { c.cur, c.prev = interval{lo: 1}, interval{lo: 1} }

// seek positions the cursor on address a and returns the last note
// with base <= a, or -1.
func (c *noteCursor) seek(notes []note, a int64) int {
	if a >= c.cur.lo && a < c.cur.hi {
		return c.cur.i
	}
	c.cur, c.prev = c.prev, c.cur
	if a >= c.cur.lo && a < c.cur.hi {
		return c.cur.i
	}
	i := sort.Search(len(notes), func(i int) bool { return notes[i].base > a }) - 1
	c.cur = interval{i: i, lo: math.MinInt64, hi: math.MaxInt64}
	if i >= 0 {
		c.cur.lo = notes[i].base
	}
	if i+1 < len(notes) {
		c.cur.hi = notes[i+1].base
	}
	return i
}

// at maps address a to its canonical address and copy through the
// cursor; ok is false outside every note.
func (c *noteCursor) at(notes []note, nt int, a int64) (canon int64, copy int, ok bool) {
	i := c.seek(notes, a)
	if i < 0 {
		return 0, 0, false
	}
	canon, copy, _, ok = canonicalIn(notes[i], nt, a)
	return canon, copy, ok
}

// resolve maps the access [addr, addr+size) in one step when all of it
// lies outside every note, or inside one element of one copy of one
// note; otherwise it answers mixed.
func (c *noteCursor) resolve(notes []note, nt int, addr, size int64) (mode int, canon int64, cp int) {
	if i := c.seek(notes, addr); i >= 0 {
		n := notes[i]
		if canon, cp, room, ok := canonicalIn(n, nt, addr); ok {
			if size <= room && addr+size <= n.base+n.span*int64(nt) {
				return inside, canon, cp
			}
			return mixed, 0, 0
		}
	}
	if addr+size > c.cur.hi {
		return mixed, 0, 0 // reaches into the next note
	}
	return outside, 0, 0
}

// Dependence kinds for exact-edge tolerance checks.
const (
	kindFlow = iota
	kindAnti
	kindOutput
)

// edgeProfiled reports whether the profiled graph contains the carried
// dependence between the sites of two conflicting accesses.
func edgeProfiled(g *ddg.Graph, prev, cur int, kind int) bool {
	k := ddg.Flow
	switch kind {
	case kindAnti:
		k = ddg.Anti
	case kindOutput:
		k = ddg.Output
	}
	return g.HasEdge(prev, cur, k, true)
}
