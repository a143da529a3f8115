package guard

// The oracle is the guard's previous replay, kept verbatim in logic as
// the reference the record-based replay is checked against: every
// event is a full interp.Access, the merge copies the events into one
// slice in schedule order, and the note of every byte is resolved by
// binary search. It reads the monitor's configuration, its region
// geometry and its report formatting, and keeps shadows of its own.

import (
	"sort"

	"gdsx/internal/interp"
	"gdsx/internal/shadow"
)

type oracleCell struct {
	w, r, wm int32
	ep       uint32
}

type oracleShadow struct {
	shadow.Table[oracleCell]
}

func (s *oracleShadow) cell(addr int64, ep uint32) *oracleCell {
	c := &s.Page(addr)[addr&shadow.PageMask]
	if c.ep != ep {
		*c = oracleCell{ep: ep}
	}
	return c
}

type oracleSeg struct {
	iter int64
	tid  int
	seq  int
	evs  []interp.Access
}

// oracle holds the reference replay's state across the regions of one
// monitor, as the monitor did before records replaced events.
type oracle struct {
	raw, can oracleShadow
	epoch    uint32
}

// merge rebuilds the sequential schedule from per-thread logs, each
// split into chunks of logChunkCap events as the old monitor logged
// them.
func (o *oracle) merge(logs [][]interp.Access) (merged []interp.Access, seqs []int32) {
	var segs []oracleSeg
	for t, log := range logs {
		seq := 0
		for len(log) > 0 {
			c := log[:min(len(log), logChunkCap)]
			log = log[len(c):]
			for len(c) > 0 {
				iter := c[0].Iter
				i := 1
				for i < len(c) && c[i].Iter == iter {
					i++
				}
				segs = append(segs, oracleSeg{iter: iter, tid: t, seq: seq, evs: c[:i]})
				seq++
				c = c[i:]
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, b := &segs[i], &segs[j]
		if a.iter != b.iter {
			return a.iter < b.iter
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.seq < b.seq
	})
	for _, s := range segs {
		merged = append(merged, s.evs...)
		for range s.evs {
			seqs = append(seqs, int32(s.seq))
		}
	}
	return merged, seqs
}

// replay checks one region's per-thread logs against m's region-start
// notes, graphs and violation cap, and returns the report the old
// monitor raised (nil when clean).
func (o *oracle) replay(m *Monitor, logs [][]interp.Access) *Report {
	merged, seqs := o.merge(logs)
	if len(merged) == 0 {
		return nil
	}
	nt := m.cfg.Threads
	notes := append([]note(nil), m.regionNotes...)
	o.epoch++
	if o.epoch == 0 {
		o.raw.Reset()
		o.can.Reset()
		o.epoch = 1
	}
	ep := o.epoch
	raw, can := &o.raw, &o.can
	g := m.cfg.Graphs[m.loop]

	rep := &Report{Loop: m.loop, Threads: m.nthreads}
	seen := map[vioKey]bool{}
	record := func(rule string, ev interp.Access, addr int64, cp int, other *interp.Access) {
		rep.Total++
		if rep.ByRule == nil {
			rep.ByRule = map[string]int{}
		}
		rep.ByRule[rule]++
		key := vioKey{rule: rule, site: ev.Site}
		if other != nil {
			key.other = other.Site
		}
		if seen[key] || len(rep.Violations) >= m.cfg.MaxViolations {
			return
		}
		seen[key] = true
		rep.Violations = append(rep.Violations, m.newViolation(rule, ev, addr, cp, other))
	}

	for i := range merged {
		ev := merged[i]
		id := int32(i + 1)
		if ev.Def {
			for a := ev.Addr; a < ev.Addr+ev.Size; a++ {
				c := raw.cell(a, ep)
				c.w, c.r, c.wm = 0, 0, 0
				if cn, _, ok := canonical(notes, nt, a); ok {
					cc := can.cell(cn, ep)
					cc.w, cc.r = 0, 0
				}
			}
			notes = dropStale(notes, nt, ev.Addr, ev.Size)
			continue
		}
		var flagged [4]bool
		for a := ev.Addr; a < ev.Addr+ev.Size; a++ {
			rc := raw.cell(a, ep)
			cn, cp, inExp := canonical(notes, nt, a)

			check := func(prev int32, kind int) {
				if prev == 0 || flagged[3] {
					return
				}
				p := &merged[prev-1]
				if p.Iter == ev.Iter {
					return
				}
				if p.Tid == ev.Tid {
					if seqs[prev-1] < seqs[i] {
						return
					}
					if kind == kindOutput && inExp {
						return
					}
				} else {
					if p.Ordered && ev.Ordered {
						return
					}
					if g != nil && edgeProfiled(g, p.Site, ev.Site, kind) {
						return
					}
				}
				flagged[3] = true
				record(RuleConflict, ev, a, -1, p)
			}
			if ev.Store {
				check(rc.w, kindOutput)
				check(rc.r, kindAnti)
			} else {
				check(rc.w, kindFlow)
				if !flagged[3] && rc.w != 0 && rc.wm != 0 && rc.wm != rc.w {
					pm, pw := &merged[rc.wm-1], &merged[rc.w-1]
					if pm.Tid == ev.Tid && pw.Tid == ev.Tid &&
						pm.Iter != ev.Iter && seqs[rc.wm-1] < seqs[i] {
						flagged[3] = true
						record(RuleConflict, ev, a, -1, pm)
					}
				}
			}

			if inExp {
				cc := can.cell(cn, ep)
				if cp != 0 && cp != ev.Tid && !flagged[2] {
					var other *interp.Access
					if cc.w != 0 {
						other = &merged[cc.w-1]
					}
					flagged[2] = true
					record(RuleForeignCopy, ev, a, cp, other)
				}
				if ev.Store {
					cc.w = id
				} else {
					switch {
					case cc.w == rc.w:
						if cc.w == 0 && cp != 0 && !flagged[1] {
							flagged[1] = true
							record(RuleStaleCopy, ev, a, cp, nil)
						}
					case cc.w != 0:
						if !flagged[0] {
							flagged[0] = true
							record(RuleCarriedFlow, ev, a, cp, &merged[cc.w-1])
						}
					}
					cc.r = id
				}
			}

			if ev.Store {
				if rc.wm == 0 {
					rc.wm = id
				} else if pm := &merged[rc.wm-1]; pm.Tid != ev.Tid ||
					seqs[rc.wm-1] <= seqs[i] {
					rc.wm = id
				}
				rc.w = id
			} else {
				rc.r = id
			}
		}
	}
	if rep.Total == 0 {
		return nil
	}
	return rep
}

// canonical maps a concrete address to its de-expanded (canonical)
// address and copy index by binary search over the notes. ok is false
// for addresses outside every expanded structure.
func canonical(notes []note, nt int, a int64) (canon int64, copy int, ok bool) {
	i := sort.Search(len(notes), func(i int) bool { return notes[i].base > a }) - 1
	if i < 0 {
		return 0, 0, false
	}
	n := notes[i]
	if a >= n.base+n.span*int64(nt) {
		return 0, 0, false
	}
	off := a - n.base
	if n.esz > 0 {
		// Interleaved: element i of copy t at base + (i*nt + t)*esz.
		copy = int((off / n.esz) % int64(nt))
		canon = n.base + (off/(n.esz*int64(nt)))*n.esz + off%n.esz
		return canon, copy, true
	}
	// Bonded: copy t spans [base + t*span, base + (t+1)*span).
	copy = int(off / n.span)
	canon = n.base + off%n.span
	return canon, copy, true
}
