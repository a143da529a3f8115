package guard

import (
	"sort"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/shadow"
)

// shadowCell stores 1-based indices into the merged event slice of the
// last write and last read that touched the byte; 0 means none since
// the last definition. wm tracks the write that physically survives at
// the byte under same-thread out-of-order execution: among a run of
// writes by one thread it is the one with the latest execution order
// (largest seq), which under work stealing need not be the last one in
// iteration order. ep tags the replay epoch the indices belong to: a
// cell written in an earlier epoch reads as empty, which lets the
// shadows persist across safe points without ever being cleared.
type shadowCell struct {
	w, r, wm int32
	ep       uint32
}

// epochShadow is a byte-granular shadow whose pages live for the
// monitor's lifetime; the epoch tag makes prior regions' contents
// invisible, so a replay touches exactly the bytes it checks and pays
// nothing to reset state between regions.
type epochShadow struct {
	shadow.Table[shadowCell]
}

func (s *epochShadow) cell(addr int64, ep uint32) *shadowCell {
	c := &s.Page(addr)[addr&shadow.PageMask]
	if c.ep != ep {
		*c = shadowCell{ep: ep}
	}
	return c
}

// logSeg is a run of consecutive events one thread logged for one
// iteration — a zero-copy subslice of a log chunk. seq orders a
// thread's segments by logging time, so sorting by (iter, tid, seq)
// reconstructs the sequential schedule even when work stealing makes
// a thread's iteration numbers non-monotonic.
type logSeg struct {
	iter int64
	tid  int
	seq  int
	evs  []interp.Access
}

// mergeLogs rebuilds the sequential schedule from the per-thread logs
// into m.merged (reused across safe points): split every chunk into
// per-iteration segments, sort the segments by (iteration, thread,
// per-thread order), and concatenate. Ties on iteration go to the
// lowest thread id — the order the old k-way merge over statically
// scheduled logs produced. Alongside the merged events it fills
// m.seqs with each event's per-thread segment ordinal, which records
// the thread's true program order: under work stealing a thread may
// execute its iterations out of iteration order, and the replay's
// same-thread serialization excuse must check the order the thread
// actually ran, not the order the merge reconstructs.
func (m *Monitor) mergeLogs() []interp.Access {
	segs := m.segs[:0]
	total := 0
	for t := range m.tlogs {
		l := &m.tlogs[t]
		seq := 0
		addChunk := func(c []interp.Access) {
			total += len(c)
			for len(c) > 0 {
				iter := c[0].Iter
				i := 1
				for i < len(c) && c[i].Iter == iter {
					i++
				}
				segs = append(segs, logSeg{iter: iter, tid: t, seq: seq, evs: c[:i]})
				seq++
				c = c[i:]
			}
		}
		for _, c := range l.full {
			addChunk(c)
		}
		addChunk(l.cur)
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
	m.segs = segs
	if cap(m.merged) < total {
		m.merged = make([]interp.Access, 0, total)
		m.seqs = make([]int32, 0, total)
	}
	merged, seqs := m.merged[:0], m.seqs[:0]
	for _, s := range segs {
		merged = append(merged, s.evs...)
		for range s.evs {
			seqs = append(seqs, int32(s.seq))
		}
	}
	m.merged, m.seqs = merged, seqs
	return merged
}

// replay checks one region's logs and returns a report, or nil when
// the region is violation-free. Everything it reads from the logs is
// copied into the report before it returns, so the caller may recycle
// the log chunks immediately.
func (m *Monitor) replay() *Report {
	merged := m.mergeLogs()
	if len(merged) == 0 {
		return nil
	}
	nt := m.cfg.Threads
	notes := append([]note(nil), m.regionNotes...)
	m.epoch++
	if m.epoch == 0 {
		// Epoch wrap: drop the pages so a stale tag cannot collide.
		m.raw.Reset()
		m.can.Reset()
		m.epoch = 1
	}
	ep := m.epoch
	raw, can := &m.raw, &m.can
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
			// Fresh storage: kill the byte history and any stale
			// expansion note the addresses shadow.
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
		// One violation per (event, rule): byte-granular scanning would
		// otherwise multiply-count a single bad access.
		var flagged [4]bool
		for a := ev.Addr; a < ev.Addr+ev.Size; a++ {
			rc := raw.cell(a, ep)
			cn, cp, inExp := canonical(notes, nt, a)

			// Raw shadow: unsynchronized conflicts (V4) — cross-thread
			// pairs no ordered section serializes, and same-thread pairs
			// a stolen out-of-order execution failed to serialize.
			check := func(prev int32, kind int) {
				if prev == 0 || flagged[3] {
					return
				}
				p := &merged[prev-1]
				if p.Iter == ev.Iter {
					return // same iteration: executed by one thread
				}
				if p.Tid == ev.Tid {
					if m.seqs[prev-1] < m.seqs[i] {
						return // the thread really executed p first
					}
					// Out of iteration order: a stolen range ran this
					// thread's later iteration first. A write-write pair
					// inside an expanded structure is still harmless —
					// the classification proved the structure dead after
					// the region, and a read observing the wrong
					// survivor is caught through the read's own checks
					// below — but a pair involving a read saw (or
					// exposed) a wrong value, and live-out shared state
					// depends on write order.
					if kind == kindOutput && inExp {
						return
					}
				} else {
					if p.Ordered && ev.Ordered {
						return // both inside the ordered section: serialized
					}
					if g != nil && edgeProfiled(g, p, &ev, kind) {
						return // a dependence the profile already knew
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
				// The sequential data source rc.w may have executed in
				// order, yet an iteration-earlier write of the same
				// thread executed after it and physically holds the byte
				// when this read runs.
				if !flagged[3] && rc.w != 0 && rc.wm != 0 && rc.wm != rc.w {
					pm, pw := &merged[rc.wm-1], &merged[rc.w-1]
					if pm.Tid == ev.Tid && pw.Tid == ev.Tid &&
						pm.Iter != ev.Iter && m.seqs[rc.wm-1] < m.seqs[i] {
						flagged[3] = true
						record(RuleConflict, ev, a, -1, pm)
					}
				}
			}

			// Canonical shadow: expansion-semantics checks (V1–V3).
			if inExp {
				cc := can.cell(cn, ep)
				if cp != 0 && cp != ev.Tid && !flagged[2] {
					// V3: a copy belonging to another thread.
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
						// The sequential data source is the very write this
						// copy holds (or both are pre-region and the read
						// goes through the original storage): correct.
						// cc.w == 0 == rc.w with cp != 0 falls through below.
						if cc.w == 0 && cp != 0 && !flagged[1] {
							// V2: sequentially this read would see pre-loop
							// data, but copy cp started zero-filled.
							flagged[1] = true
							record(RuleStaleCopy, ev, a, cp, nil)
						}
					case cc.w != 0:
						// V1: sequentially the read's data source is a write
						// that landed in a different copy — a dependence the
						// thread-private classification ruled out.
						if !flagged[0] {
							flagged[0] = true
							record(RuleCarriedFlow, ev, a, cp, &merged[cc.w-1])
						}
					}
					cc.r = id
				}
			}

			// Update the raw shadow after the checks. wm keeps the write
			// that physically survives: within one thread the larger seq
			// executed later (equal seq = same segment, where replay
			// order is execution order); a write from another thread has
			// no comparable order and just becomes the new baseline.
			if ev.Store {
				if rc.wm == 0 {
					rc.wm = id
				} else if pm := &merged[rc.wm-1]; pm.Tid != ev.Tid ||
					m.seqs[rc.wm-1] <= m.seqs[i] {
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

// Dependence kinds for exact-edge tolerance checks.
const (
	kindFlow = iota
	kindAnti
	kindOutput
)

// edgeProfiled reports whether the profiled graph contains the carried
// dependence between the two conflicting accesses.
func edgeProfiled(g *ddg.Graph, p, ev *interp.Access, kind int) bool {
	k := ddg.Flow
	switch kind {
	case kindAnti:
		k = ddg.Anti
	case kindOutput:
		k = ddg.Output
	}
	return g.HasEdge(p.Site, ev.Site, k, true)
}
