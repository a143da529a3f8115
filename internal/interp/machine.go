// Package interp executes MiniC programs against the simulated memory.
// It is the testbed substrate of the reproduction: sequential runs
// drive the dependence profiler, and parallel loops run with one
// goroutine per simulated thread over the shared address space, so the
// effect of the expansion transformation on wall-clock time, memory use
// and instruction counts is directly measurable.
package interp

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdsx/internal/ast"
	"gdsx/internal/mem"
	"gdsx/internal/obs"
	"gdsx/internal/sema"
	"gdsx/internal/token"
)

// Counter categories for the instruction breakdown (paper Figure 12).
const (
	CatWork = iota // ordinary program operations
	CatSync        // scheduler operations: iteration dispatch, post
	CatWait        // spin iterations in ordered-section waits (cpu_relax)
	NumCats
)

// CatNames names the counter categories.
var CatNames = [NumCats]string{"work", "sync", "wait"}

// Hooks intercept the interpreter for profiling and for the
// runtime-privatization baseline. All fields are optional.
type Hooks struct {
	// Load and Store observe every memory access executed on the main
	// thread (sequential execution), keyed by access-site ID.
	Load  func(site int, addr int64, size int64)
	Store func(site int, addr int64, size int64)
	// LoopEnter/LoopIter/LoopExit observe loop execution on the main
	// thread. LoopIter is called before each iteration with a 0-based
	// iteration number.
	LoopEnter func(loopID int)
	LoopIter  func(loopID int, iter int64)
	LoopExit  func(loopID int)
	// Redirect, when set, may return a replacement address for a memory
	// access executed by any thread (the runtime-privatization access
	// monitor), plus the simulated op cost of the monitoring work it
	// performed. It runs on the accessing thread.
	Redirect func(site int, addr int64, size int64, tid int) (int64, int64)
	// Free observes heap frees (including the implicit free of realloc),
	// so privatization runtimes can invalidate per-thread copies.
	Free func(base int64)
	// ParallelStart/ParallelEnd bracket a parallel loop execution.
	ParallelStart func(loopID, nthreads int)
	ParallelEnd   func(loopID int)
	// IterStart/IterEnd bracket one parallel-loop iteration on the
	// worker thread executing it (the observability layer's span feed).
	// Unlike LoopIter they fire on every simulated thread, and only
	// inside the parallel-loop machinery — sequential loops do not emit
	// them.
	IterStart func(loopID int, iter int64, tid int)
	IterEnd   func(loopID int, iter int64, tid int)
	// ParallelCancel replaces ParallelEnd for a region abandoned
	// mid-flight (watchdog timeout): per-thread observations are
	// partial, so observers should discard them instead of running
	// their safe-point analysis.
	ParallelCancel func(loopID int)
	// Observe, when set, watches every sited memory access on every
	// thread (with the address Redirect produced, if any): the feed of
	// the guarded-execution monitor. It also sees definition events
	// (declarations, allocations, argument binding) with Def set.
	Observe func(ev Access)
	// RegionOnly declares that this set's per-access hooks (Redirect/
	// Load/Store/Observe) only need events from threads executing
	// inside a parallel region. The engine then keeps sequential-
	// context accesses on the fast path (and re-enable scalar register
	// promotion, which never applies inside parallel subtrees anyway).
	// The guard monitor sets it: the monitor is inert between regions.
	RegionOnly bool
	// PrivateStacks declares that Observe does not need accesses a
	// parallel worker makes to its own stack region. Worker stacks are
	// disjoint and live for the whole region, so such accesses can
	// never conflict across threads nor land in an expanded structure
	// a sequential execution would have shared — they are thread-
	// private by construction (the paper's Definition 5 classifies
	// loop-body locals out of consideration before expansion even
	// runs). Skipping them removes the bulk of the guard's logging
	// volume. Monitors that want stack-escape conflicts checked too
	// (one worker publishing a pointer to its own frame and another
	// dereferencing it) leave this unset and log everything.
	PrivateStacks bool
	// Expand observes the __expand_malloc/__expand_note markers the
	// guarded expansion pass emits: base is the address of copy 0, span
	// the per-copy size in bytes, esz the element size for interleaved
	// layout (0 = bonded layout).
	Expand func(base, span, esz int64)
}

// Access describes one observed memory access for Hooks.Observe.
type Access struct {
	Site int
	Addr int64
	Size int64
	Tid  int
	// Iter is the 0-based iteration the accessing thread is executing;
	// only meaningful while a parallel loop runs.
	Iter  int64
	Store bool
	// Def marks the definition of a fresh object (declaration,
	// allocation, argument binding): prior contents of the addresses are
	// dead.
	Def bool
	// Ordered marks accesses executed inside an ordered section
	// (between SyncWait and SyncPost).
	Ordered bool
}

// Options configure a Machine.
type Options struct {
	// NumThreads is the simulated thread count N. 1 means sequential.
	NumThreads int
	// MemSize is the simulated memory capacity in bytes (default 64 MiB).
	MemSize int64
	// StackSize is the per-thread stack size in bytes (default 1 MiB).
	StackSize int64
	// Hooks intercept execution (may be nil).
	Hooks *Hooks
	// ForceSequential runs parallel-annotated loops sequentially (used
	// to measure transformed-code overhead on one core, Figure 9).
	ForceSequential bool
	// TraceParallel executes parallel loops sequentially while
	// recording per-iteration cost traces for the schedule simulator
	// (package schedule). Implies sequential execution.
	TraceParallel bool
	// ParallelizeSingle runs the parallel-loop machinery (worker
	// spawning, region hooks) even with one thread, so runtime
	// monitors engage for single-thread overhead measurements.
	ParallelizeSingle bool
	// MaxOps aborts the run once the main thread has executed this
	// many operations (0 = unlimited): a runaway guard for untrusted
	// programs.
	MaxOps int64
	// MemLimit caps live simulated allocations in bytes (0 = capacity
	// only); allocations beyond it fail like out-of-memory.
	MemLimit int64
	// FailAlloc makes the Nth allocation of the run fail (1 = the
	// first), a fault-injection hook for OOM-robustness tests.
	FailAlloc int64
	// Sched selects the parallel-loop scheduler. The zero value is
	// SchedStealing (work-stealing deques for DOALL, self-scheduling
	// for DOACROSS); SchedStatic gives every worker its contiguous
	// static share. Both produce identical output, counters and guard
	// semantics — only the iteration-to-thread assignment (and hence
	// wall-clock balance) differs.
	Sched SchedPolicy
	// Opt selects how much of the engine's optimization pipeline
	// applies (see opt.go). The zero value is the full pipeline;
	// OptNone reproduces the unoptimized closures.
	Opt OptLevel
	// Recover enables region-scoped checkpoint/rollback recovery: each
	// parallel region snapshots mutable state on entry, and a guard
	// abort, worker fault or watchdog timeout rolls the region back and
	// re-executes it sequentially instead of failing the run.
	Recover *RecoverySpec
	// RegionTimeout bounds each parallel region's wall-clock time
	// (0 = unbounded). An expired watchdog cancels the workers; with
	// Recover set the region is rolled back and re-executed
	// sequentially, without it the run fails with a runtime error.
	RegionTimeout time.Duration
	// Obs attaches the runtime observability layer: its tracer and
	// metrics registry receive region/iteration/guard/recovery/allocator
	// events through the hook layer plus direct feeds from the allocator
	// and the recovery controller. Nil disables observability at zero
	// cost (every producer is behind a nil check).
	Obs *obs.Observer
	// FaultPlan injects deterministic failures into the speculation
	// ladder (forced rollbacks) for chaos testing. Nil disables
	// injection.
	FaultPlan *FaultPlan
	// Ctx, when non-nil, cancels the run cooperatively: its Done channel
	// is watched for the duration of Run, and every statement boundary
	// — plus the spin and idle loops of the parallel schedulers — is a
	// cancellation safe point. A cancelled run winds down all workers
	// (no goroutine leaks, no partial guard analysis: the region's
	// hooks see ParallelCancel) and returns *CancelledError wrapping
	// context.Cause. It composes with RegionTimeout: the
	// watchdog bounds one region, the context bounds the whole run.
	Ctx context.Context
	// Memory, when non-nil, is the simulated memory to execute against
	// instead of allocating a fresh one — it must be freshly created or
	// Reset, with capacity Options.MemSize. Package gdsx passes a pooled
	// one on every run it owns: resetting a used arena costs up to its
	// address high-water mark, not its capacity.
	Memory *mem.Memory
}

func (o *Options) fill() {
	if o.NumThreads <= 0 {
		o.NumThreads = 1
	}
	if o.MemSize <= 0 {
		o.MemSize = 64 << 20
	}
	if o.StackSize <= 0 {
		o.StackSize = 1 << 20
	}
}

// Result is the outcome of running a program.
type Result struct {
	Exit     int64
	Output   string
	Counters [NumCats]int64
	MemStats mem.Stats
	// MemOps is the number of memory accesses executed.
	MemOps int64
	// Traces holds one entry per parallel-loop instance when the
	// machine ran with TraceParallel.
	Traces []*LoopTrace
	// Regions holds per-region recovery health records (sorted by loop
	// ID) when the machine ran with Options.Recover.
	Regions []RegionStats
}

// Machine executes one MiniC program.
type Machine struct {
	prog *ast.Program
	info *sema.Info
	opts Options
	mem  *mem.Memory

	globalAddr []int64
	strMu      sync.Mutex
	strings    map[string]int64

	outMu sync.Mutex
	out   bytes.Buffer

	counters [NumCats]int64
	memOps   int64
	ctrMu    sync.Mutex

	traces []*LoopTrace

	// faults tracks the consumption counters of Options.FaultPlan; nil
	// without a plan.
	faults *faultState

	inParallel bool

	// recovery is the region-recovery controller, nil unless the
	// machine runs with Options.Recover.
	recovery *recoveryState

	// stop is the cooperative-cancellation flag: set (once) by the
	// context watcher while Options.Ctx is cancellable. Compiled code
	// polls it at statement boundaries, and the scheduler spin loops poll
	// it alongside the region-cancel flag. cancelCause is written before
	// the release-store of stop, so any thread that observes stop also
	// observes the cause.
	stop        atomic.Bool
	cancelCause error

	// code holds the closure-compiled function bodies and global
	// initializers.
	code *compiledProg
}

// New creates a machine for the checked program.
func New(prog *ast.Program, info *sema.Info, opts Options) *Machine {
	opts.fill()
	backing := opts.Memory
	if backing == nil {
		backing = mem.New(opts.MemSize)
	}
	m := &Machine{
		prog:    prog,
		info:    info,
		opts:    opts,
		mem:     backing,
		strings: map[string]int64{},
	}
	if opts.Obs != nil {
		// The observer's hooks run ahead of any caller-supplied chain
		// (monitor + user): the guard monitor's ParallelEnd panics on a
		// violation, and chaining obs first means the region-end event
		// is recorded before that panic cuts the chain.
		m.opts.Hooks = ChainHooks(obsHooks(opts.Obs, opts.NumThreads), opts.Hooks)
		m.mem.SetObs(opts.Obs)
	}
	if opts.MemLimit > 0 {
		m.mem.SetLimit(opts.MemLimit)
	}
	if opts.FailAlloc > 0 {
		m.mem.SetFailAlloc(opts.FailAlloc)
	}
	if opts.Recover != nil {
		m.recovery = newRecoveryState(*opts.Recover, opts.Obs)
	}
	if opts.FaultPlan != nil {
		m.faults = &faultState{plan: *opts.FaultPlan}
	}
	m.code = compileProgram(m)
	return m
}

// Mem exposes the simulated memory (used by hooks and tests).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// Info returns the semantic tables for the program being run.
func (m *Machine) Info() *sema.Info { return m.info }

// NumThreads returns the configured simulated thread count.
func (m *Machine) NumThreads() int { return m.opts.NumThreads }

// RuntimeError is the structured error a faulting MiniC program
// produces (null dereference, out-of-bounds access, division by zero,
// out of memory, ...). It aborts execution via panic; Run recovers it
// into the returned error.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e RuntimeError) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

func rterrf(pos token.Pos, format string, args ...any) {
	panic(RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Abort carries a structured error out of a hook (the guarded-execution
// monitor raises it from ParallelEnd): Run recovers it and returns Err.
type Abort struct{ Err error }

// CancelledError is the structured error a cooperatively-cancelled run
// returns (Options.Ctx done). The message is deterministic for a given
// cancellation cause — it never names the statement, iteration or
// thread the cancellation happened to land on.
type CancelledError struct {
	// Cause is context.Cause at cancellation time (context.Canceled,
	// context.DeadlineExceeded, or a caller-supplied cause).
	Cause error
}

func (e *CancelledError) Error() string {
	if e.Cause != nil {
		return "interp: run cancelled: " + e.Cause.Error()
	}
	return "interp: run cancelled"
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// runCancelled is panicked at a safe point on the spawning thread when
// the machine's context is done; Run recovers it into *CancelledError.
// Workers inside a parallel region panic regionCanceled instead (their
// recover swallows it) so cancellation never masquerades as a worker
// fault with a nondeterministic iteration number.
type runCancelled struct{}

// raiseCancelled aborts execution at a cancellation safe point.
func (t *thread) raiseCancelled() {
	if t.parallel {
		panic(regionCanceled{})
	}
	panic(runCancelled{})
}

// cancelled reports whether the machine's context was cancelled.
func (m *Machine) cancelled() bool { return m.stop.Load() }

// Run executes the program's main function and returns its result.
func (m *Machine) Run() (res Result, err error) {
	if ctx := m.opts.Ctx; ctx != nil && ctx.Done() != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, &CancelledError{Cause: context.Cause(ctx)}
		}
		// The watcher flips the stop flag when the context fires; the
		// done channel reclaims it when Run returns first, so a pooled
		// machine leaks no goroutine.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				m.cancelCause = context.Cause(ctx)
				m.stop.Store(true)
			case <-done:
			}
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(RuntimeError); ok {
				err = re
				return
			}
			if ab, ok := r.(Abort); ok {
				err = ab.Err
				return
			}
			if _, ok := r.(runCancelled); ok {
				err = &CancelledError{Cause: m.cancelCause}
				return
			}
			// A contained region failure that no recovery caught (the
			// machine runs without Options.Recover): surface the
			// underlying error unchanged.
			if rf, ok := r.(regionFault); ok {
				err = rf.err
				return
			}
			panic(r)
		}
	}()
	if err := m.initGlobals(); err != nil {
		return Result{}, err
	}
	t, terr := m.newThread(0)
	if terr != nil {
		return Result{}, terr
	}
	mainFn := m.prog.Func("main")
	ret := t.callCompiled(m.code.funcs[mainFn], nil, mainFn.Pos())
	m.mergeCounters(t)
	res = Result{
		Exit:     ret.I,
		Output:   m.out.String(),
		Counters: m.counters,
		MemStats: m.mem.Stats(),
		MemOps:   m.memOps,
		Traces:   m.traces,
	}
	if m.recovery != nil {
		res.Regions = m.recovery.snapshot()
	}
	m.publishObs(res)
	return res, nil
}

// publishObs records the run's final whole-run aggregates in the
// metrics registry: the instruction-category counters and the
// allocator's high-water marks (the incremental allocator feed tracks
// live bytes; the final gauges make the totals available even for
// programs that never free).
func (m *Machine) publishObs(res Result) {
	o := m.opts.Obs
	if o == nil || o.Metrics == nil {
		return
	}
	for i := 0; i < NumCats; i++ {
		o.Counter("interp.ops." + CatNames[i]).Add(res.Counters[i])
	}
	o.Gauge("mem.live").Set(res.MemStats.Live)
	o.Gauge("mem.high_water").Set(res.MemStats.HighWater)
	o.Gauge("mem.high_water_data").Set(res.MemStats.HighWaterData)
	o.Gauge("mem.blocks").Set(int64(res.MemStats.Blocks))
}

// RegionStats returns the per-region recovery health records (sorted
// by loop ID); empty unless the machine runs with Options.Recover.
func (m *Machine) RegionStats() []RegionStats {
	if m.recovery == nil {
		return nil
	}
	return m.recovery.snapshot()
}

func (m *Machine) mergeCounters(t *thread) {
	m.ctrMu.Lock()
	for i := 0; i < NumCats; i++ {
		m.counters[i] += t.counters[i]
	}
	m.memOps += t.memOps
	m.ctrMu.Unlock()
}

func (m *Machine) initGlobals() error {
	m.globalAddr = make([]int64, len(m.info.Globals))
	for i, g := range m.info.Globals {
		size := g.Type.Size()
		addr, err := m.mem.Alloc(size, 0, "global "+g.Name)
		if err != nil {
			return err
		}
		m.globalAddr[i] = addr
	}
	// Initializers are constant expressions, compiled with the function
	// bodies; a scratch thread evaluates them after all allocation.
	t, err := m.newThread(0)
	if err != nil {
		return err
	}
	defer t.release()
	for i, g := range m.info.Globals {
		if init := m.code.globals[i]; init != nil {
			t.storeTyped(m.globalAddr[i], g.Type, init(t, nil))
		}
	}
	return nil
}

// internString returns the address of a NUL-terminated copy of s.
func (m *Machine) internString(s string) int64 {
	m.strMu.Lock()
	defer m.strMu.Unlock()
	if a, ok := m.strings[s]; ok {
		return a
	}
	addr, err := m.mem.Alloc(int64(len(s))+1, 0, "str")
	if err != nil {
		rterrf(token.Pos{}, "interning string: %v", err)
	}
	copy(m.mem.Bytes(addr, int64(len(s))), s)
	m.strings[s] = addr
	return addr
}

func (m *Machine) printf(format string, args ...any) {
	m.outMu.Lock()
	fmt.Fprintf(&m.out, format, args...)
	m.outMu.Unlock()
}
