package interp

import (
	"sort"
	"sync"

	"gdsx/internal/mem"
	"gdsx/internal/obs"
)

// Region-scoped recovery: with Options.Recover set, every parallel
// region begins by snapshotting the machine's mutable state (an
// incremental write log over the simulated memory plus the output
// buffer, counters and allocator metadata). If the region fails — a
// guard monitor aborts at the safe point, a worker faults, or the
// region watchdog expires — the snapshot is rolled back and the region
// re-executes sequentially on the spawning thread, after which the run
// continues with parallel execution for subsequent regions. Sequential
// execution of the expanded program on thread 0 touches only copy 0 of
// every expanded structure, so the re-execution reproduces native
// sequential semantics exactly.
//
// A per-region health record narrows a region that keeps failing. The
// region starts at NumThreads workers, and every recovered failure
// halves its width; at one worker the region is demoted and runs
// sequentially, without even a snapshot, for the rest of the run. The
// width never grows. A narrowed region's workers use the first copies
// of every expanded structure (the expanded program keeps its
// NumThreads copies), so the copies above the width keep their initial
// values, as they do on a sequential re-execution.

// RecoverySpec enables region-scoped checkpoint/rollback recovery. It
// has no fields: the ladder's only parameter is the machine's thread
// count.
type RecoverySpec struct{}

// FailKind classifies why a parallel region was rolled back.
type FailKind int

const (
	// FailViolation: the guard monitor detected a dependence violation
	// at the region's safe point.
	FailViolation FailKind = iota
	// FailFault: a worker raised a runtime fault (OOM, null
	// dereference, ...) inside the region.
	FailFault
	// FailTimeout: the region watchdog (Options.RegionTimeout) expired.
	FailTimeout
)

func (k FailKind) String() string {
	switch k {
	case FailViolation:
		return "violation"
	case FailFault:
		return "worker fault"
	case FailTimeout:
		return "timeout"
	}
	return "unknown"
}

// RegionStats is the health record of one parallel region (keyed by
// loop ID), exposed through Result.Regions when recovery is enabled.
type RegionStats struct {
	Loop int `json:"loop"`
	// ParallelRuns counts parallel executions that committed.
	ParallelRuns int `json:"parallel_runs"`
	// SeqRuns counts sequential executions: recovery re-executions
	// after a rollback plus runs while the region was demoted.
	SeqRuns    int `json:"seq_runs"`
	Violations int `json:"violations"`
	Faults     int `json:"faults"`
	Timeouts   int `json:"timeouts"`
	// Rollbacks counts rolled-back parallel attempts, with the total
	// pre-image pages and bytes the rollbacks restored.
	Rollbacks     int   `json:"rollbacks"`
	RollbackPages int   `json:"rollback_pages"`
	RollbackBytes int64 `json:"rollback_bytes"`
	// SnapshotPages/Bytes total the write-log size of committed
	// (successful) parallel runs: the snapshot overhead paid on the
	// no-violation path.
	SnapshotPages int   `json:"snapshot_pages"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Demoted reports whether the region ended the run demoted.
	Demoted     bool   `json:"demoted"`
	LastFailure string `json:"last_failure,omitempty"`
}

type regionHealth struct {
	stats RegionStats
	// width is the number of workers the region runs on until it is
	// demoted.
	width int
}

// recoveryState is the per-machine recovery controller. Regions only
// start on the spawning (main) thread, but the mutex keeps the
// controller safe if that ever changes; it is taken once per region.
type recoveryState struct {
	threads int           // the width every region starts at
	o       *obs.Observer // nil when the run is unobserved
	mu      sync.Mutex
	regions map[int]*regionHealth
}

func newRecoveryState(threads int, o *obs.Observer) *recoveryState {
	return &recoveryState{threads: threads, o: o, regions: map[int]*regionHealth{}}
}

func (rc *recoveryState) health(loop int) *regionHealth {
	h := rc.regions[loop]
	if h == nil {
		h = &regionHealth{stats: RegionStats{Loop: loop}, width: rc.threads}
		rc.regions[loop] = h
	}
	return h
}

// admit returns the number of workers the region may run on, or 0
// when the region is demoted and runs sequentially.
func (rc *recoveryState) admit(loop int) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	h := rc.health(loop)
	if !h.stats.Demoted {
		return h.width
	}
	h.stats.SeqRuns++
	rc.o.Counter("recover.seq_runs").Inc()
	return 0
}

func (rc *recoveryState) noteSuccess(loop int, pages int, bytes int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	h := rc.health(loop)
	h.stats.ParallelRuns++
	h.stats.SnapshotPages += pages
	h.stats.SnapshotBytes += bytes
	rc.o.Counter("recover.commits").Inc()
	rc.o.Counter("recover.snapshot_pages").Add(int64(pages))
	rc.o.Counter("recover.snapshot_bytes").Add(bytes)
	rc.o.Emit(obs.Event{Name: "checkpoint-commit", Ph: 'i', Loop: loop, Iter: -1,
		V1: int64(pages), V2: bytes})
}

func (rc *recoveryState) noteFailure(loop int, fail *regionFault, pages int, bytes int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	h := rc.health(loop)
	switch fail.kind {
	case FailViolation:
		h.stats.Violations++
		rc.o.Counter("recover.rollbacks.violation").Inc()
	case FailFault:
		h.stats.Faults++
		rc.o.Counter("recover.rollbacks.fault").Inc()
	case FailTimeout:
		h.stats.Timeouts++
		rc.o.Counter("recover.rollbacks.timeout").Inc()
	}
	h.stats.Rollbacks++
	h.stats.RollbackPages += pages
	h.stats.RollbackBytes += bytes
	h.stats.SeqRuns++ // the sequential re-execution that follows
	if fail.err != nil {
		h.stats.LastFailure = fail.err.Error()
	}
	rc.o.Counter("recover.rollbacks").Inc()
	rc.o.Counter("recover.rollback_pages").Add(int64(pages))
	rc.o.Counter("recover.rollback_bytes").Add(bytes)
	rc.o.Counter("recover.seq_runs").Inc()
	rc.o.Emit(obs.Event{Name: "rollback", Ph: 'i', Loop: loop, Iter: -1,
		Label: fail.kind.String(), V1: int64(pages), V2: bytes})
	// The strike halves the width; a region left at one worker is
	// demoted instead.
	from := h.width
	if h.width /= 2; h.width > 1 {
		rc.o.Counter("recover.narrowings").Inc()
		rc.o.Emit(obs.Event{Name: "narrow", Ph: 'i', Loop: loop, Iter: -1,
			V1: int64(from), V2: int64(h.width)})
		return
	}
	h.stats.Demoted = true
	rc.o.Counter("recover.demotions").Inc()
	rc.o.Emit(obs.Event{Name: "demote", Ph: 'i', Loop: loop, Iter: -1,
		V1: int64(h.stats.Rollbacks)})
}

// snapshot returns the per-region stats sorted by loop ID.
func (rc *recoveryState) snapshot() []RegionStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]RegionStats, 0, len(rc.regions))
	for _, h := range rc.regions {
		out = append(out, h.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Loop < out[j].Loop })
	return out
}

// regionFault carries a contained parallel-region failure (worker
// fault or watchdog timeout) out of the region as a panic. With
// recovery enabled it triggers rollback; without, Machine.Run unwraps
// err, preserving the error callers saw before recovery existed.
type regionFault struct {
	kind FailKind
	err  error
}

// regionSnapshot captures everything a region rollback must restore
// beyond the simulated memory: the output buffer length, the machine
// and spawning-thread counters, and the string-intern table (interned
// addresses allocated inside the region die with the rollback).
type regionSnapshot struct {
	ms        *mem.Snapshot
	outLen    int
	counters  [NumCats]int64
	memOps    int64
	tCounters [NumCats]int64
	tMemOps   int64
	strings   map[string]int64
}

// beginRegionSnapshot is called on the spawning thread at region entry,
// before the loop initializer and bounds evaluation, so a rollback can
// re-execute the loop from scratch.
func (t *thread) beginRegionSnapshot() *regionSnapshot {
	m := t.m
	strs := make(map[string]int64, len(m.strings))
	for k, v := range m.strings {
		strs[k] = v
	}
	s := &regionSnapshot{
		ms:        m.mem.BeginSnapshot(),
		counters:  m.counters,
		memOps:    m.memOps,
		tCounters: t.counters,
		tMemOps:   t.memOps,
		strings:   strs,
	}
	m.outMu.Lock()
	s.outLen = m.out.Len()
	m.outMu.Unlock()
	return s
}

// rollbackRegion restores the snapshot, returning the restored write
// log's size. Runs on the spawning thread after every worker has
// joined, so no other goroutine touches the machine.
func (t *thread) rollbackRegion(s *regionSnapshot) (pages int, bytes int64) {
	m := t.m
	pages, bytes = m.mem.Rollback(s.ms)
	m.outMu.Lock()
	m.out.Truncate(s.outLen)
	m.outMu.Unlock()
	m.counters = s.counters
	m.memOps = s.memOps
	t.counters = s.tCounters
	t.memOps = s.tMemOps
	m.strings = s.strings
	return pages, bytes
}
