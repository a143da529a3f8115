package gdsx

// The arena pool (arenas in gdsx.go) must be invisible: every entry point that
// takes a pooled arena gives what it gives on a fresh NewMemory arena,
// twice in a row and right after a pooled run that failed and left its
// arena dirty (written blocks, accounting, an armed limit or fault
// countdown, a cancelled run).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gdsx/internal/interp"
	"gdsx/internal/profile"
	"gdsx/internal/workloads"
)

// poolCase is one program of the parity tests: a Table-4 workload
// profiled on its own input, or an adversarial exposing input profiled
// on its training input.
type poolCase struct {
	name, src, prof string
	// raceFree marks programs whose expanded form runs correctly
	// unguarded at 2 threads; the adversarial expansions race there.
	raceFree bool
}

func poolCases() []poolCase {
	var cs []poolCase
	for _, w := range workloads.All() {
		src := w.Source(workloads.Test)
		cs = append(cs, poolCase{name: w.Name, src: src, prof: src, raceFree: true})
	}
	for _, a := range workloads.AdversarialAll() {
		cs = append(cs, poolCase{name: a.Name, src: a.Expose(workloads.Test), prof: a.Profile(workloads.Test)})
	}
	return cs
}

// poolBuilt holds a case's compiled programs and guarded transform.
// exp is a compilation of tr.Source of its own, for the fresh-arena
// reference; pooled runs share tr.Expanded.
type poolBuilt struct {
	c                     poolCase
	native, profProg, exp *Program
	tr                    *TransformResult
}

func buildPoolCase(c poolCase) (*poolBuilt, error) {
	b := &poolBuilt{c: c}
	var err error
	if b.native, err = Compile(c.name+".c", c.src); err != nil {
		return nil, err
	}
	if b.profProg, err = Compile(c.name+"-train.c", c.prof); err != nil {
		return nil, err
	}
	if b.tr, err = Transform(b.native, TransformOptions{Guard: true, ProfileSource: c.prof}); err != nil {
		return nil, err
	}
	if b.tr.Expanded.Source != b.tr.Source {
		return nil, fmt.Errorf("%s: tr.Expanded is not a compilation of tr.Source", c.name)
	}
	b.exp, err = Compile(b.tr.Expanded.File, b.tr.Source)
	return b, err
}

// expanded is the expansion a step runs: a fresh arena's run its own
// compilation, a pooled run the shared tr.Expanded.
func (b *poolBuilt) expanded(a arenaSource) *Program {
	if a.fresh {
		return b.exp
	}
	return b.tr.Expanded
}

// arenaSource says where a step's runs get their memory: a fresh
// NewMemory arena per run, or the package pool.
type arenaSource struct {
	fresh bool
	size  int64
}

func (a arenaSource) opts(o RunOptions) RunOptions {
	o.MemSize = a.size
	if a.fresh {
		o.Memory = NewMemory(a.size)
	}
	return o
}

// stable clears what scheduling, not memory, decides in a
// multi-threaded run: live-byte high-water marks, ordered-section spin
// counts and write-log page counts vary between two runs on fresh
// arenas too.
func stable(r Result) Result {
	r.MemStats.HighWater, r.MemStats.HighWaterData = 0, 0
	r.Counters[interp.CatWait] = 0
	r.Regions = append([]RegionStats(nil), r.Regions...)
	for i := range r.Regions {
		rs := &r.Regions[i]
		rs.SnapshotPages, rs.SnapshotBytes, rs.RollbackPages, rs.RollbackBytes = 0, 0, 0, 0
	}
	return r
}

// guardedSummary is what the parity tests compare of a guarded run
// (Result.Regions carries GuardedResult.Regions).
type guardedSummary struct {
	Result                Result
	Violations, Recovered int
	FellBack              bool
}

// transformSummary is what the parity tests compare of a transform.
type transformSummary struct {
	Source   string
	Profiles map[int]*profile.Result
}

// poolSteps are the pooled entry points, each returning a value that
// must be deeply equal between arena sources.
var poolSteps = []struct {
	name string
	// expansion marks the steps that run b.expanded.
	expansion bool
	run       func(b *poolBuilt, a arenaSource) (any, error)
}{
	{"run/1", false, func(b *poolBuilt, a arenaSource) (any, error) {
		return b.native.Run(a.opts(RunOptions{}))
	}},
	{"run/2", true, func(b *poolBuilt, a arenaSource) (any, error) {
		if !b.c.raceFree {
			return nil, nil
		}
		r, err := b.expanded(a).Run(a.opts(RunOptions{Threads: 2, Sched: SchedStatic}))
		return stable(r), err
	}},
	{"guarded", true, func(b *poolBuilt, a arenaSource) (any, error) {
		g, err := GuardedRunPrecompiled(b.native, b.tr, b.expanded(a),
			a.opts(RunOptions{Threads: 2, Sched: SchedStatic, Recover: &RecoverySpec{}}))
		if err != nil {
			return nil, err
		}
		return guardedSummary{Result: stable(g.Result), Violations: len(g.Violations),
			Recovered: g.Recovered, FellBack: g.FellBack}, nil
	}},
	{"profile", false, func(b *poolBuilt, a arenaSource) (any, error) {
		prs := map[int]*profile.Result{}
		for _, id := range b.profProg.ParallelLoops() {
			pr, err := b.profProg.ProfileLoop(id, a.opts(RunOptions{}))
			if err != nil {
				return nil, err
			}
			prs[id] = pr
		}
		return prs, nil
	}},
	{"transform", false, func(b *poolBuilt, a arenaSource) (any, error) {
		tr, err := Transform(b.native, TransformOptions{Guard: true, ProfileSource: b.c.prof,
			ProfileOpts: a.opts(RunOptions{})})
		if err != nil {
			return nil, err
		}
		return transformSummary{Source: tr.Source, Profiles: tr.Profiles}, nil
	}},
}

// dirtySrc writes a byte pattern into 200 heap blocks and then runs
// tail, which makes the run fail.
func dirtySrc(tail string) string {
	return `
int main() {
	int i;
	long s = 0;
	for (i = 0; i < 200; i++) {
		char *b = (char*)malloc(4096);
		memset(b, 90, 4096);
		s = s + b[i];
	}
` + tail + `
	print_long(s);
	return 0;
}
`
}

// poolFailures each fail one pooled run of a dirtySrc program and
// return an error when it did not fail as designed.
var poolFailures = []struct {
	name string
	run  func(size int64) error
}{
	{"MemLimit OOM", func(size int64) error {
		_, err := runSource("dirty.c", dirtySrc(""), RunOptions{MemSize: size, MemLimit: 1<<20 + 256<<10})
		return wantRunError(err, "out of memory")
	}},
	{"FailAlloc", func(size int64) error {
		_, err := runSource("dirty.c", dirtySrc(""), RunOptions{MemSize: size, FailAlloc: 40})
		return wantRunError(err, "fault injection")
	}},
	{"cancelled Ctx", func(size int64) error {
		// The tail spins until the cancellation lands, so the run ends
		// cancelled however late the context's watcher fires.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		hooks := &interp.Hooks{LoopIter: func(_ int, it int64) {
			if it == 100 {
				cancel()
			}
		}}
		_, err := runSource("dirty.c", dirtySrc("while (s > 0) { s = s + 1; }"),
			RunOptions{MemSize: size, Ctx: ctx, Hooks: hooks})
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("run ended with %v, want a cancellation", err)
		}
		return nil
	}},
	{"null dereference", func(size int64) error {
		// The limit and the countdown stay armed in the arena: the
		// program needs less than 2 MiB and 250 allocations, the next
		// 2-thread run or transform more.
		_, err := runSource("dirty.c", dirtySrc("long *p = 0; s = s + *p;"),
			RunOptions{MemSize: size, MemLimit: 2 << 20, FailAlloc: 250})
		return wantRunError(err, "null pointer dereference")
	}},
}

func wantRunError(err error, msg string) error {
	var re interp.RuntimeError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, msg) {
		return fmt.Errorf("run ended with %v, want a runtime error containing %q", err, msg)
	}
	return nil
}

// freshResults runs every step of b on fresh arenas.
func freshResults(b *poolBuilt, size int64) ([]any, error) {
	want := make([]any, len(poolSteps))
	for i, s := range poolSteps {
		v, err := s.run(b, arenaSource{fresh: true, size: size})
		if err != nil {
			return nil, fmt.Errorf("%s on a fresh arena: %w", s.name, err)
		}
		want[i] = v
	}
	return want, nil
}

// checkPooled runs step i of b through the pool and compares it with
// the fresh arena's result.
func checkPooled(b *poolBuilt, i int, want any, size int64, when string) error {
	s := poolSteps[i]
	got, err := s.run(b, arenaSource{size: size})
	if err != nil {
		return fmt.Errorf("%s %s: %s: %w", b.c.name, when, s.name, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s %s: %s differs from the fresh arena's:\n pooled %.400v\n fresh  %.400v",
			b.c.name, when, s.name, got, want)
	}
	return nil
}

// TestArenaPoolParity checks every pooled entry point against a fresh
// arena on the 8 Table-4 workloads and the 3 adversarial pairs: twice
// in a row, then right after each kind of failed pooled run.
func TestArenaPoolParity(t *testing.T) {
	for _, c := range poolCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			b, err := buildPoolCase(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshResults(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range poolSteps {
				for rep := 1; rep <= 2; rep++ {
					if err := checkPooled(b, i, want[i], 0, fmt.Sprintf("pooled run %d", rep)); err != nil {
						t.Error(err)
					}
				}
				for _, f := range poolFailures {
					if err := f.run(0); err != nil {
						t.Fatalf("%s: %v", f.name, err)
					}
					if err := checkPooled(b, i, want[i], 0, "after a pooled "+f.name); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}

// TestArenaPoolParityConcurrent runs the parity check from 8 goroutines
// at once, so more runs than GOMAXPROCS share the pool, each with
// failed runs between its own. First every goroutine runs every case's
// expansion steps, plain and guarded in an order that alternates
// between goroutines, so 8 concurrent runs share each tr.Expanded. It
// uses 8 MiB arenas to keep the footprint of 8 live arenas small.
func TestArenaPoolParityConcurrent(t *testing.T) {
	const size = 8 << 20
	cases := poolCases()
	built := make([]*poolBuilt, len(cases))
	want := make([][]any, len(cases))
	for i, c := range cases {
		b, err := buildPoolCase(c)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = freshResults(b, size); err != nil {
			t.Fatal(err)
		}
		built[i] = b
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var shared []int
			for i, s := range poolSteps {
				if s.expansion {
					shared = append(shared, i)
				}
			}
			if g%2 == 1 {
				slices.Reverse(shared)
			}
			for ci := range cases {
				for _, i := range shared {
					if err := checkPooled(built[ci], i, want[ci][i], size, "sharing tr.Expanded"); err != nil {
						t.Error(err)
					}
				}
			}
			for k := 0; k < 2; k++ {
				ci := (2*g + k) % len(cases)
				for i := range poolSteps {
					f := poolFailures[(g+i)%len(poolFailures)]
					if err := f.run(size); err != nil {
						t.Errorf("%s: %v", f.name, err)
						return
					}
					if err := checkPooled(built[ci], i, want[ci][i], size, "after a pooled "+f.name); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// takePooled empties the package's arena pool and returns what it
// held, oldest first.
func takePooled() []*Memory {
	arenas.Lock()
	defer arenas.Unlock()
	free := arenas.free
	arenas.free = nil
	return free
}

// TestArenaPoolWipesToWatermark: a returned arena reads zero up to
// the highest address its run wrote, freed-and-never-reused bytes
// included.
func TestArenaPoolWipesToWatermark(t *testing.T) {
	prog, err := Compile("pattern.c", `
int main() {
	int i;
	int j;
	long s = 0;
	for (i = 0; i < 64; i++) {
		char *b = (char*)malloc(1024);
		for (j = 0; j < 1024; j++) { b[j] = 90; }
		s = s + b[i];
		if (i % 2 == 0) { free(b); }
	}
	print_long(s);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	takePooled()
	var top, pattern int64
	hooks := &interp.Hooks{Store: func(_ int, addr, size int64) {
		if addr+size > top {
			top = addr + size
		}
		pattern++
	}}
	res, err := prog.Run(RunOptions{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "5760" || pattern < 64*1024 {
		t.Fatalf("pattern run printed %q after %d stores; the check would be vacuous", res.Output, pattern)
	}
	free := takePooled()
	if len(free) != 1 {
		t.Fatalf("pool holds %d arenas after one run, want 1", len(free))
	}
	for addr, v := range free[0].Bytes(0, top) {
		if v != 0 {
			t.Fatalf("returned arena holds %#x at address %d (run wrote up to %d)", v, addr, top)
		}
	}
}

// TestArenaPoolSkipsPanickedRun: a run that panics keeps its arena out
// of the pool, since the panic may have left an allocator lock held.
func TestArenaPoolSkipsPanickedRun(t *testing.T) {
	prog, err := Compile("loop.c", `
int main() {
	int i;
	long s = 0;
	for (i = 0; i < 8; i++) { s = s + i; }
	print_long(s);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	takePooled()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the hook's panic did not propagate out of Run")
			}
		}()
		_, _ = prog.Run(RunOptions{Hooks: &interp.Hooks{LoopEnter: func(int) { panic("hook bug") }}})
	}()
	if free := takePooled(); len(free) != 0 {
		t.Fatalf("a panicked run returned its arena: pool holds %d", len(free))
	}
	if _, err := prog.Run(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if free := takePooled(); len(free) != 1 {
		t.Fatalf("pool holds %d arenas after one clean run, want 1", len(free))
	}
}

// TestArenaPoolMatchesCapacity: a MemSize call runs on an arena of
// that capacity even while arenas of the default capacity are pooled,
// and both capacities are pooled afterwards.
func TestArenaPoolMatchesCapacity(t *testing.T) {
	prog, err := Compile("big.c", `
int main() {
	char *b = (char*)malloc(16777216);
	b[16777215] = 7;
	print_int(b[16777215]);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // room for two pooled arenas
	}
	takePooled()
	if _, err := prog.Run(RunOptions{}); err != nil {
		t.Fatalf("run on a default arena: %v", err)
	}
	free := takePooled()
	if len(free) != 1 || free[0].Cap() != 64<<20 {
		t.Fatalf("pool after a default run: %d arenas", len(free))
	}
	def := free[0]
	putArena(def)
	if _, err := prog.Run(RunOptions{MemSize: 8 << 20}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("capacity %d", 8<<20)) {
		t.Fatalf("a 16 MiB allocation on an 8 MiB run ended with %v, want an 8 MiB capacity OOM", err)
	}
	if _, err := prog.Run(RunOptions{}); err != nil {
		t.Fatalf("run on the pooled default arena: %v", err)
	}
	free = takePooled()
	if len(free) != 2 || free[0].Cap() != 8<<20 || free[1] != def {
		caps := make([]int64, len(free))
		for i, m := range free {
			caps[i] = m.Cap()
		}
		t.Fatalf("pool holds capacities %v, want the 8 MiB arena then the reused default one", caps)
	}
}

// The pool as the package's initialization left it, with GOMAXPROCS
// and the process's resident set at that point: taken before any test
// runs, since the tests take and return arenas. Reading arenas orders
// this initializer after the pool's.
var startPool, startProcs, startRSS = func() (int, int, int64) {
	arenas.Lock()
	defer arenas.Unlock()
	return len(arenas.free), runtime.GOMAXPROCS(0), residentBytes()
}()

// residentBytes returns the process's resident set in bytes, or -1
// where /proc/self/statm cannot be read.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return -1
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return -1
	}
	return pages * int64(os.Getpagesize())
}

// TestPoolStartsWithUntouchedArenas: the pool starts with
// min(2, GOMAXPROCS) default-capacity arenas, allocated before the heap
// was ever collected, so the runtime did not clear them and their
// 64 MiB each are not resident until runs write them.
func TestPoolStartsWithUntouchedArenas(t *testing.T) {
	if want := min(2, startProcs); startPool != want {
		t.Fatalf("the pool started with %d arenas at GOMAXPROCS=%d, want %d", startPool, startProcs, want)
	}
	if startRSS < 0 {
		t.Skip("no /proc/self/statm to read the resident set from")
	}
	if startRSS >= 64<<20 {
		t.Fatalf("%d MiB resident after initialization: the runtime cleared the initial arenas", startRSS>>20)
	}
	t.Logf("%d arenas, %.1f MiB resident after initialization", startPool, float64(startRSS)/(1<<20))
}
