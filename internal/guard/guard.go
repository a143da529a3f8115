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
// takes zero shared-cache-line writes. At the region's end — the safe
// point — the logs are merged in iteration order (reconstructing the
// sequential schedule, under any scheduling policy) and replayed
// against two byte-granular shadows:
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
// A detected violation aborts the run via interp.Abort from the
// ParallelEnd hook; the driver then discards the expanded run and
// re-executes the native program sequentially.
package guard

import (
	"fmt"
	"sort"
	"sync"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/obs"
	"gdsx/internal/sema"
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

	// CheckOwnStack makes the monitor log the accesses parallel workers
	// make to their own stacks instead of waiving them as thread-private
	// (per-thread stacks are disjoint address ranges that live exactly
	// as long as the region, so the Definition 5 classification rules
	// them out before expansion ever runs). The waiver removes the bulk
	// of the in-region log volume; the one behaviour it gives up is
	// attribution through an escaped stack local where the owning
	// thread's side of the conflict is the waived access. Enable for
	// exhaustive logs when debugging such a case.
	CheckOwnStack bool

	// Obs optionally receives the monitor's observability feed: a
	// guard-verdict trace event per safe-point replay, per-thread
	// log-size histograms, and replay/violation counters. Nil disables
	// the feed.
	Obs *obs.Observer

	// Tiers attaches the adaptive sampling-tier controller (see
	// adaptive.go): regions that stay clean drop to sampled checking,
	// and flow-shaped evidence seen under sampling raises a suspicion
	// (rollback + sequential re-execution, no strike) instead of a
	// violation. Nil keeps every region fully guarded — the pre-adaptive
	// behaviour.
	Tiers *TierController
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

	// Sampling plan of the active region (from Config.Tiers):
	// sampleK <= 1 is full guarding, otherwise only iterations with
	// Iter % sampleK == samplePhase are logged (plus every Def event,
	// which kills byte history and must never be missed).
	sampleK     int
	samplePhase int64

	// chunkPool recycles sealed log chunks across regions (guarded by
	// mu); steady-state logging allocates nothing.
	chunkPool [][]interp.Access

	// Replay scratch, reused across safe points: the merged event
	// buffer, the segment table it is built from, and the two shadows,
	// whose epoch tag makes prior regions' contents invisible without
	// clearing a byte.
	merged []interp.Access
	seqs   []int32
	segs   []logSeg
	raw    epochShadow
	can    epochShadow
	epoch  uint32

	// reports accumulates every violation the monitor detected, in
	// region order. With region-scoped recovery a run can survive
	// several violating regions, so one run may collect several reports.
	reports []*Report
}

// logChunkCap is the event capacity of one log chunk. Fixed-size
// chunks replace a growing slice so logging never pays the copy-and-
// clear of slice growth: a full chunk is sealed and a fresh one drawn
// from the pool.
const logChunkCap = 4096

// tlog is one thread's append-only access log: the active chunk plus
// the sealed chunks preceding it. Only the owning thread appends, so
// the append path is lock-free; the monitor's mutex is taken once per
// logChunkCap events to draw a chunk from the pool.
type tlog struct {
	cur  []interp.Access
	full [][]interp.Access
}

// count returns the number of events the log holds.
func (l *tlog) count() int {
	n := len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	return n
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
		// A worker's own stack is thread-private by construction, so
		// those accesses can neither conflict across threads nor alias
		// an expanded structure; see Config.CheckOwnStack.
		PrivateStacks:  !m.cfg.CheckOwnStack,
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
	m.sampleK, m.samplePhase = 1, 0
	if tc := m.cfg.Tiers; tc != nil {
		m.sampleK, m.samplePhase = tc.plan(loopID)
	}
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
	// Sampled tier: whole iterations are skipped (never single accesses,
	// which would tear write/read pairs within an iteration), except
	// definition events — a Def kills byte history and drops stale
	// expansion notes, and missing one would manufacture false evidence.
	if m.sampleK > 1 && !ev.Def && ev.Iter%int64(m.sampleK) != m.samplePhase {
		return
	}
	l := &m.tlogs[ev.Tid]
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = m.getChunk()
	}
	l.cur = append(l.cur, ev)
}

// getChunk draws an empty chunk from the pool (or allocates one).
func (m *Monitor) getChunk() []interp.Access {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.chunkPool); n > 0 {
		c := m.chunkPool[n-1]
		m.chunkPool = m.chunkPool[:n-1]
		return c
	}
	return make([]interp.Access, 0, logChunkCap)
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
		l.cur, l.full = nil, nil
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
	// Flow-shaped evidence found under a sampled tier may be a sampling
	// artifact (the true data source could be an unlogged write): demote
	// it to a suspicion — rollback + sequential re-execution without a
	// strike — and escalate the region back to full guarding, which
	// settles the question on the next execution. Hard evidence
	// (foreign-copy, unsynchronized-conflict) stays a violation at any
	// tier.
	suspicion := rep != nil && m.sampleK > 1 && !rep.hardEvidence()
	m.emitVerdict(loopID, rep, suspicion)
	m.recycleLogs()
	tc := m.cfg.Tiers
	switch {
	case rep == nil:
		if tc != nil {
			tc.noteClean(loopID)
		}
	case suspicion:
		if tc != nil {
			tc.noteSuspicion(loopID)
		}
		detail := "flow-shaped evidence under sampled guarding"
		if len(rep.Violations) > 0 {
			v := rep.Violations[0]
			detail = fmt.Sprintf("[%s] site %d %s at %s (iteration %d, thread %d)",
				v.Rule, v.Site, v.Text, v.Pos, v.Iter, v.Tid)
		}
		panic(interp.Abort{Err: &interp.SuspicionError{Loop: loopID, Detail: detail}})
	default:
		if tc != nil {
			tc.noteViolation(loopID)
		}
		m.reports = append(m.reports, rep)
		panic(interp.Abort{Err: &ViolationError{Report: rep}})
	}
}

// emitVerdict publishes the outcome of one safe-point replay: a
// guard-verdict trace event (labelled "clean" or with the first
// violation's rule) plus replay/log-size/violation metrics. It runs
// before the violation panic, so an aborted region's verdict is still
// recorded.
func (m *Monitor) emitVerdict(loopID int, rep *Report, suspicion bool) {
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
	if m.sampleK > 1 {
		o.Counter("guard.sampled_replays").Inc()
	}
	label := "clean"
	var total int64
	switch {
	case suspicion:
		total = int64(rep.Total)
		o.Counter("guard.suspicions").Inc()
		label = "suspicion"
		if len(rep.Violations) > 0 {
			label = "suspicion:" + rep.Violations[0].Rule
		}
	case rep != nil:
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

// canonical maps a concrete address to its de-expanded (canonical)
// address and copy index. ok is false for addresses outside every
// expanded structure.
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
