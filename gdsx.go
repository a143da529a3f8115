// Package gdsx is a reproduction of "General Data Structure Expansion
// for Multi-threading" (Yu, Ko, Li — PLDI 2013). It compiles MiniC
// programs (a C subset), profiles loop-level data dependences, expands
// contentious data structures so each simulated thread works on its own
// copy, and executes the transformed program with real parallelism over
// a simulated shared memory.
//
// Typical use:
//
//	prog, err := gdsx.Compile("dijkstra.c", src)
//	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
//	out, err := tr.Expanded.Run(gdsx.RunOptions{Threads: 8})
package gdsx

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/mem"
	"gdsx/internal/obs"
	"gdsx/internal/parser"
	"gdsx/internal/profile"
	"gdsx/internal/sema"
)

// Program is a compiled (parsed and checked) MiniC program.
type Program struct {
	File   string
	Source string
	AST    *ast.Program
	Info   *sema.Info
}

// Compile parses and semantically checks a MiniC source file.
func Compile(file, src string) (*Program, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return &Program{File: file, Source: src, AST: prog, Info: info}, nil
}

// ParallelLoops returns the IDs of the program's parallel-annotated
// loops in ascending order.
func (p *Program) ParallelLoops() []int {
	var ids []int
	for id, l := range p.Info.Loops {
		if l.Par != ast.Sequential {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Print renders the (possibly transformed) program back to MiniC.
func (p *Program) Print() string { return ast.Print(p.AST) }

// RunOptions configure program execution.
type RunOptions struct {
	// Threads is the simulated thread count N (default 1).
	Threads int
	// MemSize is the simulated memory capacity (default 64 MiB).
	MemSize int64
	// StackSize is the per-thread stack size (default 1 MiB).
	StackSize int64
	// ForceSequential executes parallel loops on the main thread (used
	// to measure single-core overhead of transformed code).
	ForceSequential bool
	// Trace executes parallel loops sequentially while recording the
	// per-iteration cost traces consumed by the schedule simulator.
	Trace bool
	// MaxOps aborts the run after this many operations (0 = unlimited).
	MaxOps int64
	// MemLimit caps live allocated bytes below the simulated capacity
	// (0 = no cap); exceeding it fails the allocation like OOM.
	MemLimit int64
	// FailAlloc makes the nth allocation from program start fail with
	// an out-of-memory error (0 = disabled); fault injection for
	// robustness tests. Note that when a guarded run falls back or a
	// region rolls back, the injection is disarmed rather than rewound:
	// replaying the countdown would fire it at an unrelated allocation
	// of the re-execution (see GuardedRunPrecompiled).
	FailAlloc int64
	// Sched selects the parallel-loop scheduler: SchedStealing (the
	// default work-stealing dispatch) or SchedStatic. Both produce
	// identical output, counters and guard verdicts; only load balance
	// differs.
	Sched SchedPolicy
	// Hooks intercept execution (profiling, runtime privatization).
	Hooks *interp.Hooks
	// Opt selects the engine's optimization level. The zero value
	// enables the full pass pipeline (register promotion and
	// superinstruction fusion); OptNone disables it (-engine
	// compiled-noopt). Both levels produce byte-identical output and
	// identical instruction counters.
	Opt OptLevel
	// Recover enables region-scoped checkpoint/rollback recovery: each
	// parallel region snapshots mutable machine state on entry, and a
	// guard violation, worker fault or watchdog timeout rolls just that
	// region back and re-executes it sequentially, letting the rest of
	// the run keep its parallelism. Each rollback halves the workers
	// the region runs on, and a region down to one worker runs
	// sequentially from then on. &RecoverySpec{} enables it; nil
	// disables recovery.
	Recover *RecoverySpec
	// RegionTimeout bounds each parallel region's wall-clock time
	// (0 = unbounded). With Recover set, a stuck region is rolled back
	// and re-executed sequentially; without it the run fails.
	RegionTimeout time.Duration
	// FaultPlan injects failures into otherwise-healthy parallel
	// regions (forced rollbacks) for chaos testing of the recovery
	// ladder. Inert without Recover: the injected faults surface only
	// at the region-commit decision, which only recovery-enabled runs
	// make. See interp.FaultPlan.
	FaultPlan *FaultPlan
	// Obs attaches the runtime observability layer (package obs): an
	// event tracer with a Chrome trace-event exporter, a metrics
	// registry, and an optional per-access hot-site profiler. Nil
	// disables observability at zero cost. See NewObserver for the
	// common configuration.
	Obs *Observer
	// Ctx cancels the run cooperatively: when the context is cancelled
	// (deadline or explicit), the interpreter stops at its next safe
	// point — a statement boundary, a loop back-edge, an ordered-section
	// spin, or a scheduler idle loop — unwinds every parallel worker,
	// and returns *interp.CancelledError wrapping the context cause.
	// Nil (or a context that can never be cancelled) costs nothing.
	Ctx context.Context
	// Memory injects a caller-owned simulated memory (see NewMemory)
	// for a caller that inspects or sizes the memory itself; without
	// it a run takes a pooled MemSize arena, which is no slower. The
	// caller must Reset its memory between runs. Every call runs the
	// program once (Transform and PrivateSites profile all their loops
	// in one run) except the guarded whole-program fallback, which
	// Resets the memory before its sequential re-run. MemSize is
	// ignored when Memory is set.
	Memory *mem.Memory
}

// Memory re-exports the simulated memory (see RunOptions.Memory).
type Memory = mem.Memory

// NewMemory allocates a simulated memory of the given capacity in
// bytes (0 selects the default 64 MiB) for a caller that inspects or
// sizes the memory itself; see RunOptions.Memory.
func NewMemory(size int64) *Memory {
	if size <= 0 {
		size = 64 << 20
	}
	return mem.New(size)
}

// arenas is the free list behind every entry point that owns a run's
// lifetime (Program.Run, GuardedRunPrecompiled, Program.ProfileLoop,
// RunRuntimePrivatized and the calls built on them) when
// RunOptions.Memory is nil: a fresh arena reads zero throughout, a
// pooled one was wiped only up to its last run's address watermark. It
// holds at most GOMAXPROCS arenas; a sync.Pool would be emptied by two
// collections.
//
// The list starts with min(2, GOMAXPROCS) default-capacity arenas,
// allocated while the package initializes. The Go runtime clears a
// large allocation only when it lands on heap pages in use before; at
// initialization the heap is a few hundred KB and has never been
// collected, so these arenas come from untouched pages and cost only
// the pages runs write. An arena allocated later can land on pages a
// collection freed, and then the runtime clears, and makes resident,
// all 64 MiB of it: whether it does depends on the heap's layout at
// that moment, and it moved a cold process's peak RSS by 61 MB from
// one start to the next. Two arenas cover a caller that runs one
// program at a time and two overlapping runs. Every arena counts
// toward the collector's heap goal, touched or not, so the list does
// not start fuller.
var arenas = struct {
	sync.Mutex
	free []*Memory // the most recently returned last
}{free: initialArenas()}

// initialArenas allocates the arenas the pool starts with, all from
// one backing array: the collection that a large allocation triggers
// runs after it, and a second allocation would come after that
// collection, on a heap that may hold freed pages.
func initialArenas() []*Memory {
	const size = 64 << 20
	n := min(2, runtime.GOMAXPROCS(0))
	backing := make([]byte, n*size)
	free := make([]*Memory, n)
	for i := range free {
		free[i] = mem.Over(backing[i*size : (i+1)*size : (i+1)*size])
	}
	return free
}

// poolArena sets o.Memory, when the caller supplied none, to the most
// recently pooled arena of capacity o.MemSize, else a fresh one, and
// returns it for putArena; it returns nil for a caller's memory.
func (o *RunOptions) poolArena() *Memory {
	if o.Memory != nil {
		return nil
	}
	size := o.MemSize
	if size <= 0 {
		size = 64 << 20
	}
	arenas.Lock()
	for i := len(arenas.free) - 1; i >= 0; i-- {
		if m := arenas.free[i]; m.Cap() == size {
			o.Memory = m
			arenas.free = append(arenas.free[:i], arenas.free[i+1:]...)
			break
		}
	}
	arenas.Unlock()
	if o.Memory == nil {
		o.Memory = NewMemory(size)
	}
	return o.Memory
}

// putArena wipes m with Memory.Reset and pools it, dropping the oldest
// arena when the pool is full; nil is a no-op. Call it only once the
// machine that used m has returned, never deferred: a panic can leave
// an allocator lock held, and Reset would block on it.
func putArena(m *Memory) {
	if m == nil {
		return
	}
	m.Reset()
	arenas.Lock()
	if len(arenas.free) >= runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free[:0], arenas.free[1:]...)
	}
	arenas.free = append(arenas.free, m)
	arenas.Unlock()
}

// CancelledError re-exports the interpreter's cancellation error; a
// run whose RunOptions.Ctx was cancelled returns one wrapping the
// context cause (errors.Is(err, context.Canceled) works through it).
type CancelledError = interp.CancelledError

// Observer re-exports the observability bundle; see package obs for
// the component types.
type Observer = obs.Observer

// NewObserver builds the standard observability configuration: an
// event tracer and a metrics registry, whose cost is per-region and
// per-run rather than per-iteration and which keep register promotion
// on — cheap enough to leave on. Two heavier tiers are opt-in: setting
// IterSpans on the returned observer adds a timed trace span per loop
// iteration (two clock reads per iteration — visible on tight loops),
// and hot attaches the per-access hot-site profiler, which forces
// every sited memory access through the interpreter's hook path and
// turns promotion off. See BENCH_obs.json for the measured overhead of
// each tier.
func NewObserver(hot bool) *Observer {
	o := &Observer{
		Trace:   obs.NewTracer(0),
		Metrics: obs.NewRegistry(),
	}
	if hot {
		o.Hot = obs.NewHotSites()
	}
	return o
}

// RecoverySpec re-exports the interpreter's recovery configuration.
type RecoverySpec = interp.RecoverySpec

// FaultPlan re-exports the interpreter's chaos-injection plan.
type FaultPlan = interp.FaultPlan

// RegionStats re-exports the interpreter's per-region health record.
type RegionStats = interp.RegionStats

// SchedPolicy re-exports the interpreter's scheduler selector.
type SchedPolicy = interp.SchedPolicy

// Parallel-loop scheduling policies.
const (
	// SchedStealing dispatches DOALL iterations through per-worker
	// work-stealing deques and DOACROSS iterations through
	// self-scheduling (the default).
	SchedStealing = interp.SchedStealing
	// SchedStatic uses contiguous static chunks for every loop.
	SchedStatic = interp.SchedStatic
)

// SchedFromString parses a scheduler name ("stealing", "static", or ""
// for the default).
func SchedFromString(s string) (SchedPolicy, bool) { return interp.SchedFromString(s) }

// OptLevel re-exports the engine's optimization selector.
type OptLevel = interp.OptLevel

// Optimization levels for the engine, which compiles each function
// body to a tree of pre-resolved Go closures once, after checking.
const (
	// OptDefault runs the full optimization pipeline (the zero value).
	OptDefault = interp.OptDefault
	// OptNone compiles every construct with the generic closures.
	OptNone = interp.OptNone
)

// OptFromEngine parses an -engine name ("compiled", "compiled-noopt",
// or "" for the default) into the optimization level it selects.
func OptFromEngine(name string) (OptLevel, bool) { return interp.OptFromEngine(name) }

// Result re-exports the interpreter's run result.
type Result = interp.Result

func (o RunOptions) interpOptions() interp.Options {
	return interp.Options{
		NumThreads:      o.Threads,
		MemSize:         o.MemSize,
		StackSize:       o.StackSize,
		ForceSequential: o.ForceSequential,
		TraceParallel:   o.Trace,
		MaxOps:          o.MaxOps,
		MemLimit:        o.MemLimit,
		FailAlloc:       o.FailAlloc,
		Sched:           o.Sched,
		Hooks:           o.Hooks,
		Opt:             o.Opt,
		Recover:         o.Recover,
		RegionTimeout:   o.RegionTimeout,
		FaultPlan:       o.FaultPlan,
		Obs:             o.Obs,
		Ctx:             o.Ctx,
		Memory:          o.Memory,
	}
}

// Run executes the program.
func (p *Program) Run(opts RunOptions) (Result, error) {
	own := opts.poolArena()
	res, err := interp.New(p.AST, p.Info, opts.interpOptions()).Run()
	putArena(own)
	return res, err
}

// NewMachine returns a configured interpreter for the program, for
// callers that need access to the simulated memory (e.g. the runtime-
// privatization baseline).
func (p *Program) NewMachine(opts RunOptions) *interp.Machine {
	return interp.New(p.AST, p.Info, opts.interpOptions())
}

// ProfileLoop runs the program sequentially and returns the loop-level
// data dependence graph of the given loop plus the dynamic origins each
// access touched.
func (p *Program) ProfileLoop(loopID int, opts RunOptions) (*profile.Result, error) {
	res, err := p.profileLoops([]int{loopID}, opts)
	if err != nil {
		return nil, err
	}
	return res[loopID], nil
}

// profileLoops profiles the given loops in one sequential run (see
// profile.Loops), in a pooled arena or in opts.Memory.
func (p *Program) profileLoops(ids []int, opts RunOptions) (map[int]*profile.Result, error) {
	own := opts.poolArena()
	res, err := profile.Loops(p.AST, p.Info, ids, opts.interpOptions())
	putArena(own)
	return res, err
}

// ClassifyLoop profiles a loop and classifies its accesses per the
// paper's Definition 5.
func (p *Program) ClassifyLoop(loopID int, opts RunOptions) (*profile.Result, *ddg.Classification, error) {
	pr, err := p.ProfileLoop(loopID, opts)
	if err != nil {
		return nil, nil, err
	}
	return pr, ddg.Classify(pr.Graph, ddg.DefaultOptions()), nil
}

// Loop returns metadata for a loop ID.
func (p *Program) Loop(loopID int) (*sema.LoopInfo, error) {
	l, ok := p.Info.Loops[loopID]
	if !ok {
		return nil, fmt.Errorf("gdsx: no loop %d in %s", loopID, p.File)
	}
	return l, nil
}
