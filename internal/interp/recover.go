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
// A per-region health record adaptively demotes regions that keep
// failing: after MaxStrikes recovered failures the region runs
// sequentially without even attempting parallelism (and without
// snapshot cost); a non-zero Cooldown re-promotes it for another try
// after that many sequential executions.

// RecoverySpec configures region-scoped checkpoint/rollback recovery.
// The zero value is a usable default (demote after 2 strikes, never
// re-promote).
type RecoverySpec struct {
	// MaxStrikes demotes a region to sequential-only execution after
	// this many recovered failures (default 2; 1 demotes on the first
	// failure). Strikes accumulate over the run — they are not reset by
	// successful parallel executions.
	MaxStrikes int
	// Cooldown re-promotes a demoted region after this many sequential
	// executions, giving parallel execution another chance with one
	// remaining strike (0 = demoted for the rest of the run).
	Cooldown int
}

func (s RecoverySpec) maxStrikes() int {
	if s.MaxStrikes <= 0 {
		return 2
	}
	return s.MaxStrikes
}

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
	// Demoted reports whether the region ended the run demoted;
	// Repromotions counts cooldown-driven returns to parallel execution.
	Demoted      bool   `json:"demoted"`
	Repromotions int    `json:"repromotions"`
	LastFailure  string `json:"last_failure,omitempty"`
}

type regionHealth struct {
	stats    RegionStats
	strikes  int
	cooldown int
}

// recoveryState is the per-machine recovery controller. Regions only
// start on the spawning (main) thread, but the mutex keeps the
// controller safe if that ever changes; it is taken once per region.
type recoveryState struct {
	spec    RecoverySpec
	o       *obs.Observer // nil when the run is unobserved
	mu      sync.Mutex
	regions map[int]*regionHealth
}

func newRecoveryState(spec RecoverySpec, o *obs.Observer) *recoveryState {
	return &recoveryState{spec: spec, o: o, regions: map[int]*regionHealth{}}
}

func (rc *recoveryState) health(loop int) *regionHealth {
	h := rc.regions[loop]
	if h == nil {
		h = &regionHealth{stats: RegionStats{Loop: loop}}
		rc.regions[loop] = h
	}
	return h
}

// admit decides whether the region may attempt parallel execution.
// Demoted regions run sequentially until their cooldown (if any)
// elapses; a re-promoted region gets one remaining strike, so another
// failure demotes it again immediately.
func (rc *recoveryState) admit(loop int) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	h := rc.health(loop)
	if !h.stats.Demoted {
		return true
	}
	if rc.spec.Cooldown > 0 && h.cooldown <= 0 {
		h.stats.Demoted = false
		h.stats.Repromotions++
		h.strikes = rc.spec.maxStrikes() - 1
		rc.o.Counter("recover.repromotions").Inc()
		rc.o.Emit(obs.Event{Name: "repromote", Ph: 'i', Loop: loop, Iter: -1})
		return true
	}
	h.cooldown--
	h.stats.SeqRuns++
	rc.o.Counter("recover.seq_runs").Inc()
	return false
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
	h.strikes++
	if h.strikes >= rc.spec.maxStrikes() {
		h.stats.Demoted = true
		h.cooldown = rc.spec.Cooldown
		rc.o.Counter("recover.demotions").Inc()
		rc.o.Emit(obs.Event{Name: "demote", Ph: 'i', Loop: loop, Iter: -1,
			V1: int64(h.strikes)})
	}
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
