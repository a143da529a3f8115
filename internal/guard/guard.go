// Package guard implements guarded parallel execution: a runtime
// access monitor that checks an expanded parallel run against the
// assumptions the transformation made from its training profile — the
// Definition 5 thread-private classification and the profiled
// loop-level DDG — and reports a dependence violation when an input
// exposes behaviour the profile never saw.
//
// The monitor is engine-agnostic: it attaches to the shared hook layer
// (Hooks.Observe / Hooks.Expand / Hooks.ParallelStart / ParallelEnd),
// so the interpreter carries no monitor-specific code. The expanded program is made self-describing by
// the expansion pass's GuardNotes mode: __expand_malloc and
// __expand_note markers announce the copy geometry (base address,
// per-copy span, element size for the interleaved layout) of every
// expanded structure, which lets the monitor map any concrete address
// back to (canonical native address, copy index) without needing
// access-site identities to survive the source-to-source rewrite.
//
// During a parallel region every thread appends its sited accesses to
// a private log of fixed-size pooled chunks — the no-violation path
// takes zero shared-cache-line writes. A logged access is one 8-byte
// record (a 32-bit address, and a 32-bit word packing the site, the
// size and the store, definition and ordered flags); the iteration and
// the thread are written once per per-iteration segment header. At the
// region's end — the safe point — the segment headers are sorted into
// iteration order (reconstructing the sequential schedule, under any
// scheduling policy), an order index with one entry per ordBlock merged
// positions finds each position's segment, and the records are
// replayed in place against two byte-granular shadows:
//
//   - a canonical shadow, indexed by de-expanded addresses, which
//     detects reads whose sequential data source was another
//     iteration's write into a different copy (carried-flow), reads of
//     never-initialized non-zero copies that sequentially would have
//     seen pre-loop data (stale-copy-read), and accesses landing in a
//     copy belonging to neither the shared copy 0 nor the accessing
//     thread (foreign-copy-access);
//   - a raw shadow, indexed by concrete addresses, which detects
//     cross-thread cross-iteration conflicts with at least one write
//     that no ordered section serializes (unsynchronized-conflict) —
//     the dependences the profiled DDG missed.
//
// The replay resolves an access's expanded-structure note once per
// access, not once per byte, and skips loads on pages that no store or
// definition of the region touches and no region-start note overlaps:
// such a load can fail no check and feeds none (see replay).
//
// A detected violation aborts the run via interp.Abort from the
// ParallelEnd hook; the driver then discards the expanded run and
// re-executes the native program sequentially.
package guard

import (
	"math"
	"sort"
	"sync"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/obs"
	"gdsx/internal/sema"
	"gdsx/internal/shadow"
)

// Config configures a Monitor.
type Config struct {
	// Threads is the thread count the program was expanded for; it must
	// match the machine's NumThreads (the __expand_malloc builtin
	// allocates span*Threads bytes under the same assumption).
	Threads int

	// Info is the checked info of the *expanded* program; violation
	// reports resolve site IDs to source positions and text through it.
	Info *sema.Info

	// Graphs optionally maps loop IDs to dependence graphs whose site
	// IDs live in Info's space. When a graph is present for the
	// monitored loop, raw cross-thread conflicts matching a profiled
	// carried edge are tolerated (exact-edge mode, used by unit tests
	// and native-program monitoring); without a graph every
	// unsynchronized cross-thread conflict is a violation, which is the
	// right default for expanded DOALL/DOACROSS programs where the
	// residual profiled dependences are ordered-section protected.
	Graphs map[int]*ddg.Graph

	// MaxViolations caps the number of distinct violations kept in the
	// report (the total count is always exact). Default 16.
	MaxViolations int

	// Obs optionally receives the monitor's observability feed:
	// guard-replay and guard-verdict trace events per safe-point
	// replay, per-thread log-size histograms, and replay, event and
	// violation counters. Nil disables the feed.
	Obs *obs.Observer
}

// note records the copy geometry of one expanded structure:
// [base, base+span*threads) holds the copies; esz > 0 selects the
// interleaved layout with that element size, esz == 0 the bonded one.
type note struct {
	base, span, esz int64
}

// Monitor is the guarded-execution access monitor. Install its Hooks()
// on the machine that runs the expanded program.
type Monitor struct {
	cfg Config

	// mu guards notes; expansion markers and frees execute in
	// sequential program context, but the lock keeps the monitor safe
	// against future in-region allocation patterns.
	mu    sync.Mutex
	notes []note // sorted by base

	// Region state. active is written by ParallelStart/ParallelEnd on
	// the spawning thread, which happens-before/after all worker
	// goroutines, and each worker appends only to its own log slot.
	active      bool
	loop        int
	nthreads    int
	tlogs       []tlog
	regionNotes []note

	// chunkPool recycles sealed log chunks across regions (guarded by
	// mu); steady-state logging allocates nothing.
	chunkPool [][]rec

	// Replay scratch, reused across safe points: the merged segment
	// table, the order index over it (see segAt), the working copy of the
	// region's notes, the page stamps of the read-only-page filter and
	// the two shadows, whose epoch tag (shared with the page stamps)
	// makes prior regions' contents invisible without clearing a byte.
	segs    []seg
	ord     []int32
	noteBuf []note
	written []uint32
	raw     shadow.Table[rawCell]
	can     shadow.Table[canCell]
	epoch   uint32

	// replayed is the number of accesses the last safe point replayed:
	// the logged ones minus the loads the page filter dropped.
	replayed int64

	// reports accumulates every violation the monitor detected, in
	// region order. With region-scoped recovery a run can survive
	// several violating regions, so one run may collect several reports.
	reports []*Report
}

// rec is one logged access in 8 bytes: its address, and a word
// packing, from the high bits down, the site, the size and the store,
// definition and ordered flags. An access whose address, size or site
// does not fit its field has recWide in the size field, and its
// address, site and size in the thread's side table. An access of any
// size stays one record, because a report counts one violation per
// access and rule.
type rec struct {
	addr uint32
	meta uint32
}

// Record flags and the packed fields.
const (
	recStore     = 1 << 0
	recDef       = 1 << 1
	recOrdered   = 1 << 2
	recSizeShift = 3
	recSizeBits  = 12
	recSiteShift = recSizeShift + recSizeBits
	recWide      = 1<<recSizeBits - 1       // the size field of a side-table record
	recMaxSite   = 1<<(32-recSiteShift) - 1 // the largest site the site field holds
)

// size returns the packed size field: the access size, or recWide.
func (r rec) size() int64 { return int64(r.meta >> recSizeShift & recWide) }

// site returns the packed site field, which is meaningless when the
// size field holds recWide.
func (r rec) site() int { return int(r.meta >> recSiteShift) }

// wideAcc is a side-table entry: the address, site and size of a
// record whose size field holds recWide.
type wideAcc struct {
	addr int64
	site int
	size int64
}

// seg is the header of one per-iteration segment: a run of
// consecutive records one thread logged for one iteration, within one
// chunk. The logging thread writes iter and start; mergeLogs fills in
// the rest. seq orders a thread's segments by logging time, so sorting
// by (iter, tid, seq) reconstructs the sequential schedule even when
// work stealing makes a thread's iteration numbers non-monotonic.
type seg struct {
	iter  int64
	start int32 // thread-local index of the first record
	n     int32 // records in the segment
	pos   int32 // merged position of the first record
	tid   int32
	seq   int32
}

// logChunkCap is the record capacity of one log chunk (32 KiB).
// Fixed-size chunks replace a growing slice so logging never pays the
// copy-and-clear of slice growth: a full chunk is sealed and a fresh
// one drawn from the pool. Every sealed chunk is full, so a thread's
// record i lies in chunk i>>logChunkBits.
const (
	logChunkBits = 12
	logChunkCap  = 1 << logChunkBits
)

// tlog is one thread's append-only access log: the active chunk, the
// sealed chunks preceding it, the segment headers and the side table
// of wide records. Only the owning thread appends, so the append path
// is lock-free; the monitor's mutex is taken once per logChunkCap
// records to draw a chunk from the pool.
type tlog struct {
	cur  []rec
	full [][]rec
	iter int64 // iteration of the open segment
	segs []seg
	wide map[int32]wideAcc
}

// count returns the number of records the log holds.
func (l *tlog) count() int { return len(l.full)*logChunkCap + len(l.cur) }

// chunk returns the chunk that holds thread-local record i.
func (l *tlog) chunk(i int32) []rec {
	if c := int(i >> logChunkBits); c < len(l.full) {
		return l.full[c]
	}
	return l.cur
}

// New creates a Monitor.
func New(cfg Config) *Monitor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 16
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	return &Monitor{cfg: cfg}
}

// Hooks returns the interpreter hooks that feed the monitor.
func (m *Monitor) Hooks() *interp.Hooks {
	return &interp.Hooks{
		Observe: m.observe,
		// The monitor checks cross-iteration effects, which exist only
		// inside parallel regions: RegionOnly lets the engines keep the
		// sequential fast path (including register promotion) between
		// regions instead of funnelling every access through the hook.
		RegionOnly: true,
		// A worker's own stack is thread-private by construction: the
		// per-thread stacks are disjoint address ranges that live
		// exactly as long as the region, so those accesses can neither
		// conflict across threads nor alias an expanded structure, and
		// waiving them removes the bulk of the in-region log volume.
		PrivateStacks:  true,
		Expand:         m.noteExpand,
		Free:           m.free,
		ParallelStart:  m.parallelStart,
		ParallelEnd:    m.parallelEnd,
		ParallelCancel: m.parallelCancel,
	}
}

// Reports returns every violation report the monitor has raised, in
// region order. Under region-scoped recovery each report corresponds
// to one rolled-back region; without recovery at most one exists (the
// abort ends the run).
func (m *Monitor) Reports() []*Report {
	return append([]*Report(nil), m.reports...)
}

func (m *Monitor) total(n note) int64 { return n.span * int64(m.cfg.Threads) }

// noteExpand records the geometry of an expanded structure. A marker
// covering addresses of an earlier note supersedes it (recycled heap
// blocks, re-entered frames).
func (m *Monitor) noteExpand(base, span, esz int64) {
	if span <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	end := base + span*int64(m.cfg.Threads)
	out := m.notes[:0]
	for _, n := range m.notes {
		if base < n.base+m.total(n) && end > n.base {
			continue // superseded
		}
		out = append(out, n)
	}
	m.notes = append(out, note{base: base, span: span, esz: esz})
	sort.Slice(m.notes, func(i, j int) bool { return m.notes[i].base < m.notes[j].base })
}

// free drops the note of a freed expanded heap structure.
func (m *Monitor) free(base int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, n := range m.notes {
		if n.base == base {
			m.notes = append(m.notes[:i], m.notes[i+1:]...)
			return
		}
	}
}

func (m *Monitor) parallelStart(loopID, nthreads int) {
	m.mu.Lock()
	m.regionNotes = append(m.regionNotes[:0], m.notes...)
	m.mu.Unlock()
	m.loop = loopID
	m.nthreads = nthreads
	if cap(m.tlogs) >= nthreads {
		m.tlogs = m.tlogs[:nthreads]
	} else {
		m.tlogs = make([]tlog, nthreads)
	}
	m.active = true
}

// observe appends the access to the observing thread's log. Each
// worker owns its slot, so the append path is synchronization-free;
// outside a parallel region the monitor is inert.
func (m *Monitor) observe(ev interp.Access) {
	if !m.active || ev.Tid >= len(m.tlogs) {
		return
	}
	l := &m.tlogs[ev.Tid]
	if len(l.cur) == cap(l.cur) || ev.Iter != l.iter {
		m.openSeg(l, ev.Iter)
	}
	r := rec{addr: uint32(ev.Addr), meta: uint32(ev.Site)<<recSiteShift | uint32(ev.Size)<<recSizeShift}
	if uint64(ev.Addr) > math.MaxUint32 || uint64(ev.Size) >= recWide || uint(ev.Site) > recMaxSite {
		if l.wide == nil {
			l.wide = map[int32]wideAcc{}
		}
		l.wide[int32(l.count())] = wideAcc{addr: ev.Addr, site: ev.Site, size: ev.Size}
		r = rec{meta: recWide << recSizeShift}
	}
	if ev.Store {
		r.meta |= recStore
	}
	if ev.Def {
		r.meta |= recDef
	}
	if ev.Ordered {
		r.meta |= recOrdered
	}
	l.cur = append(l.cur, r)
}

// openSeg starts a segment for iteration iter, sealing the active
// chunk first when it is full, so no segment spans two chunks.
func (m *Monitor) openSeg(l *tlog, iter int64) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = m.getChunk()
	}
	l.iter = iter
	l.segs = append(l.segs, seg{iter: iter, start: int32(l.count())})
}

// getChunk draws an empty chunk from the pool (or allocates one).
func (m *Monitor) getChunk() []rec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.chunkPool); n > 0 {
		c := m.chunkPool[n-1]
		m.chunkPool = m.chunkPool[:n-1]
		return c
	}
	return make([]rec, 0, logChunkCap)
}

// recycleLogs returns every chunk of the region's logs to the pool and
// resets the per-thread logs. It runs before a violation abort
// unwinds, so the chunks never leak.
func (m *Monitor) recycleLogs() {
	m.mu.Lock()
	for i := range m.tlogs {
		l := &m.tlogs[i]
		for _, c := range l.full {
			m.chunkPool = append(m.chunkPool, c[:0])
		}
		if l.cur != nil {
			m.chunkPool = append(m.chunkPool, l.cur[:0])
		}
		l.cur, l.full, l.segs, l.wide = nil, nil, l.segs[:0], nil
	}
	m.mu.Unlock()
}

// parallelEnd is the safe point: replay the region's logs and abort
// the run on a detected violation. The panic unwinds as interp.Abort,
// which Machine.Run converts into the returned error; it also wins
// over a worker fault re-raised through this deferred hook, because a
// violation explains the fault.
func (m *Monitor) parallelEnd(loopID int) {
	if !m.active {
		return
	}
	m.active = false
	rep := m.replay()
	m.emitVerdict(loopID, rep)
	m.recycleLogs()
	if rep != nil {
		m.reports = append(m.reports, rep)
		panic(interp.Abort{Err: &ViolationError{Report: rep}})
	}
}

// emitVerdict publishes the outcome of one safe-point replay: a
// guard-replay trace event with the accesses replayed and the loads
// the page filter dropped, a guard-verdict trace event (labelled
// "clean" or with the first violation's rule) and the
// replay/log-size/violation metrics. It runs
// before the violation panic, so an aborted region's verdict is still
// recorded.
func (m *Monitor) emitVerdict(loopID int, rep *Report) {
	o := m.cfg.Obs
	if o == nil {
		return
	}
	var logged int64
	hLog := o.Histogram("guard.log_size")
	for i := range m.tlogs {
		n := int64(m.tlogs[i].count())
		logged += n
		hLog.Observe(n)
	}
	o.Counter("guard.replays").Inc()
	o.Counter("guard.events_logged").Add(logged)
	o.Counter("guard.events_replayed").Add(m.replayed)
	o.Emit(obs.Event{Name: "guard-replay", Ph: 'i', Loop: loopID, Iter: -1,
		V1: m.replayed, V2: logged - m.replayed})
	label := "clean"
	var total int64
	if rep != nil {
		total = int64(rep.Total)
		o.Counter("guard.violations").Add(total)
		o.Counter("guard.violating_regions").Inc()
		if len(rep.Violations) > 0 {
			label = rep.Violations[0].Rule
		}
	}
	o.Emit(obs.Event{Name: "guard-verdict", Ph: 'i', Loop: loopID, Iter: -1,
		Label: label, V1: logged, V2: total})
}

// parallelCancel discards a cancelled region's logs without the
// safe-point replay: the region was abandoned mid-flight (watchdog
// timeout), so the per-thread logs are truncated at arbitrary points
// and replaying them would manufacture false violations.
func (m *Monitor) parallelCancel(loopID int) {
	if !m.active {
		return
	}
	m.active = false
	m.recycleLogs()
	if o := m.cfg.Obs; o != nil {
		o.Counter("guard.discarded_regions").Inc()
		o.Emit(obs.Event{Name: "guard-verdict", Ph: 'i', Loop: loopID, Iter: -1,
			Label: "discarded"})
	}
}

// canonicalIn maps address a, at or above n's base, to its
// de-expanded (canonical) address and copy index; ok is false past the
// end of n's copies. room counts the bytes from a to the end of its
// element (interleaved) or copy (bonded): they map to consecutive
// canonical addresses in the same copy.
func canonicalIn(n note, nt int, a int64) (canon int64, copy int, room int64, ok bool) {
	if a >= n.base+n.span*int64(nt) {
		return 0, 0, 0, false
	}
	off := a - n.base
	if n.esz > 0 {
		// Interleaved: element i of copy t at base + (i*nt + t)*esz.
		e := off / n.esz
		in := off - e*n.esz
		row := e / int64(nt)
		return n.base + row*n.esz + in, int(e - row*int64(nt)), n.esz - in, true
	}
	// Bonded: copy t spans [base + t*span, base + (t+1)*span).
	k := off / n.span
	in := off - k*n.span
	return n.base + in, int(k), n.span - in, true
}

// dropStale removes notes overlapped by a definition of fresh storage
// (a callee frame or in-loop allocation reusing addresses), keeping a
// note whose full expanded range the definition covers exactly — that
// is the expanded allocation's own definition event.
func dropStale(notes []note, nt int, base, size int64) []note {
	out := notes[:0]
	for _, n := range notes {
		end := n.base + n.span*int64(nt)
		if base < end && base+size > n.base &&
			!(base == n.base && base+size == end) {
			continue
		}
		out = append(out, n)
	}
	return out
}
