// Package profile implements loop-level data dependence profiling, the
// mechanism the paper uses to obtain its dependence graphs (§4.1,
// refs [38, 39]). A program is executed sequentially under the
// interpreter with byte-granular shadow memory; every load and store
// inside the target loop is compared against the last writer/reader of
// each byte to emit flow/anti/output dependence edges, classified as
// loop-independent or loop-carried, plus the upwards-exposed-load and
// downwards-exposed-store properties of Definitions 2 and 3.
//
// Like practical dependence profilers, the shadow memory keeps only the
// most recent reader of each byte, so when several reads of an address
// precede a write in one iteration, the anti edge is recorded from the
// latest read. This compression never loses flow edges (the writer
// side is exact) and cannot flip a class between private and shared,
// because the reads it merges are already related by loop-independent
// flow dependences on the same address.
//
// Loops profiles several loops of a program in one run. The
// interpreter's hooks keep only what needs the live memory: each
// loop's in-loop flag, its iteration count and its Touched origins,
// which are remembered per site as the last two blocks seen, for as
// long as the memory's live-block generation (mem.Memory.Gen) stays
// unchanged. Every access and loop marker goes into a pooled batch,
// and each loop's shadow analysis reads the batches in order on its
// own goroutine. The analysis touches no Go map per byte. The shadow
// is a flat page table indexed by address (package shadow), walked one
// page span per access, and a run of bytes with identical history is
// classified once. Outside its loop an analysis skips the pages no
// instance of the loop has written, and a definition in the loop that
// covers whole pages fills them lazily, so the shadow costs what the
// loop touches. Site counts, definition counts, exposed flags and
// definition-site membership are slices indexed by access ID, folded
// into the Graph's maps once after the run. Each (destination site,
// kind, carried) slot keeps the run of identical edges it is
// extending, so the bytes of one access and the repeated executions of
// one site cost one Graph.AddEdgeN per run.
package profile

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/mem"
	"gdsx/internal/sema"
	"gdsx/internal/shadow"
)

// Origin identifies the data structure an access touched: a heap
// allocation site, a named global, or a thread stack (locals).
type Origin struct {
	Kind OriginKind
	// Site is the allocation-site ID for heap origins.
	Site int
	// Name is the global's name for global origins.
	Name string
}

// OriginKind discriminates Origin.
type OriginKind int

// Origin kinds.
const (
	OriginHeap OriginKind = iota
	OriginGlobal
	OriginStack
	OriginOther
)

func (o Origin) String() string {
	switch o.Kind {
	case OriginHeap:
		return fmt.Sprintf("heap#%d", o.Site)
	case OriginGlobal:
		return "global " + o.Name
	case OriginStack:
		return "stack"
	}
	return "other"
}

// Result is the outcome of profiling one loop.
type Result struct {
	Graph *ddg.Graph
	// Touched maps each access site executed in the loop to the set of
	// data-structure origins it touched (the dynamic points-to used to
	// cross-check the static alias analysis).
	Touched map[int]map[Origin]bool
	// Iterations is the total number of target-loop iterations profiled.
	Iterations int64
	// Run is the program's execution result.
	Run interp.Result
}

// stamp names one execution of an access site: the site and the loop
// instance and iteration it ran in. Instance 0 means outside every
// instance of the target loop.
type stamp struct {
	site, inst, iter int32
}

// cell is the shadow of one byte: its last writer and last reader.
type cell struct {
	w, r stamp
}

// DefSites returns the definition access sites of a checked program:
// declarations, allocations and argument bindings, whose stores mark
// fresh storage rather than data flow. Both the profiler and the
// guarded-execution monitor use the set to kill shadow history on
// object (re)definition.
func DefSites(info *sema.Info) map[int]bool {
	out := map[int]bool{}
	for id, as := range info.Accesses {
		if as.IsDef {
			out[id] = true
		}
	}
	return out
}

// Loop profiles the target loop of a checked program by running it
// sequentially: Loops of the one loop.
func Loop(prog *ast.Program, info *sema.Info, loopID int, opts interp.Options) (*Result, error) {
	res, err := Loops(prog, info, []int{loopID}, opts)
	if err != nil {
		return nil, err
	}
	return res[loopID], nil
}

// Loops profiles the target loops of a checked program in one
// sequential run. Each returned graph, keyed by loop ID, contains
// every dependence observed on any dynamic instance of its loop, as if
// the loop had been profiled alone; every Result's Run is the result
// of the one run. Loops waits for its analysis goroutines on every
// path out, an error or a panic included.
func Loops(prog *ast.Program, info *sema.Info, ids []int, opts interp.Options) (map[int]*Result, error) {
	out := map[int]*Result{}
	isDef := make([]bool, prog.NumAccesses+1)
	for s := range DefSites(info) {
		isDef[s] = true
	}
	r := &recorder{isDef: isDef, byID: make([]*tracker, prog.NumLoops+1)}
	var as []*analysis
	for _, id := range ids {
		if _, ok := info.Loops[id]; !ok {
			return nil, fmt.Errorf("profile: no loop with ID %d", id)
		}
		if out[id] != nil {
			continue
		}
		res := &Result{Graph: ddg.NewGraph(id), Touched: map[int]map[Origin]bool{}}
		out[id] = res
		tr := &tracker{res: res, touched: make([]touchMemo, len(isDef))}
		r.byID[id] = tr
		r.loops = append(r.loops, tr)
		as = append(as, newAnalysis(int32(id), res.Graph, isDef))
	}
	if len(as) == 0 {
		return out, nil
	}
	opts.NumThreads = 1
	opts.Hooks = r.hooks()
	opts.ForceSequential = true
	m := interp.New(prog, info, opts)
	r.mem = m.Mem()
	run, err := r.execute(m, as)
	if err != nil {
		return nil, err
	}
	for _, a := range as {
		if a.err != nil {
			return nil, a.err
		}
	}
	for _, res := range out {
		res.Run = run
	}
	return out, nil
}

// event is one entry of a batch: a load or store of size bytes at
// addr by access site site (never 0: the hooks drop unsited accesses),
// or a marker of loop site, whose iteration number an evIter carries
// in addr.
type event struct {
	addr, size int64
	site       int32
	kind       evKind
}

type evKind int32

const (
	evLoad evKind = iota
	evStore
	evEnter
	evIter
	evExit
)

// batchLen is the number of events in a batch: at 4096 (96 KiB), one
// queue handoff per analysis costs well under a nanosecond per event,
// and the queueDepth+2 batches a run holds stay under 600 KiB. Batches
// of 1024 and of 16384 events built the compile pool no faster.
const batchLen = 4096

// queueDepth is the number of batches an analysis's queue holds. It
// lets the interpreter run that far ahead of the slowest analysis to
// absorb the bursts of a loop's iterations; a deeper queue only holds
// more memory, since the slower side bounds a run's steady state.
const queueDepth = 4

// batch is a run of events that every analysis of a run reads; refs
// counts the analyses that have yet to finish with it.
type batch struct {
	ev   [batchLen]event
	n    int
	refs atomic.Int32
}

// freeBatches holds the batches of finished runs, so runs reuse batches
// rather than allocating them; a sync.Pool would be emptied by two
// collections, and profiling runs collect often. One run holds at most
// queueDepth+2 batches at once (the queue, the one the slowest
// analysis reads and the one being filled); the list keeps enough for
// two runs at a time, and a batch beyond that is dropped for the
// collector.
var freeBatches = make(chan *batch, 2*(queueDepth+2))

func getBatch() *batch {
	select {
	case b := <-freeBatches:
		return b
	default:
		return new(batch)
	}
}

func putBatch(b *batch) {
	b.n = 0
	select {
	case freeBatches <- b:
	default:
	}
}

// release records that one analysis is done with b, and pools b once
// every analysis is.
func (b *batch) release() {
	if b.refs.Add(-1) == 0 {
		putBatch(b)
	}
}

// recorder is the interpreter side of a profiling run: the hooks
// update each profiled loop's tracker and append every event to the
// current batch, which goes to every analysis's queue when full.
type recorder struct {
	mem   *mem.Memory
	isDef []bool
	byID  []*tracker // indexed by loop ID; nil for unprofiled loops
	loops []*tracker
	// inside counts the loops whose in-loop flag is set.
	inside int
	cur    *batch
	queue  []chan *batch // one per analysis
	// stop tells the analyses to skip the batches still queued after
	// the run failed.
	stop atomic.Bool
}

// tracker is the interpreter-side state of one profiled loop: its
// in-loop flag follows the same LoopEnter/LoopExit rules as the
// analysis's, and gates the touched-origin lookups, which read the
// live memory's blocks.
type tracker struct {
	res     *Result
	inLoop  bool
	touched []touchMemo
}

func (r *recorder) hooks() *interp.Hooks {
	return &interp.Hooks{
		LoopEnter: func(id int) { r.marker(id, evEnter, 0) },
		LoopIter:  func(id int, it int64) { r.marker(id, evIter, it) },
		LoopExit:  func(id int) { r.marker(id, evExit, 0) },
		Load:      r.load,
		Store:     r.store,
	}
}

func (r *recorder) marker(id int, k evKind, it int64) {
	l := r.byID[id]
	if l == nil {
		return
	}
	switch k {
	case evEnter:
		if !l.inLoop {
			r.inside++
		}
		l.inLoop = true
	case evIter:
		l.res.Iterations++
	case evExit:
		if l.inLoop {
			r.inside--
		}
		l.inLoop = false
	}
	r.put(event{addr: it, site: int32(id), kind: k})
}

func (r *recorder) load(site int, addr, size int64) {
	if site == 0 {
		return
	}
	if r.inside > 0 {
		r.touch(site, addr)
	}
	r.put(event{addr: addr, size: size, site: int32(site), kind: evLoad})
}

func (r *recorder) store(site int, addr, size int64) {
	if site == 0 {
		return
	}
	if r.inside > 0 && !r.isDef[site] {
		r.touch(site, addr)
	}
	r.put(event{addr: addr, size: size, site: int32(site), kind: evStore})
}

// touch records the origin an access hit for every loop inside an
// instance.
func (r *recorder) touch(site int, addr int64) {
	for _, l := range r.loops {
		if l.inLoop {
			l.touch(r.mem, site, addr)
		}
	}
}

func (r *recorder) put(e event) {
	b := r.cur
	b.ev[b.n] = e
	b.n++
	if b.n == batchLen {
		r.send()
	}
}

// send hands the current batch to every analysis and starts a new one.
func (r *recorder) send() {
	b := r.cur
	b.refs.Store(int32(len(r.queue)))
	for _, q := range r.queue {
		q <- b
	}
	r.cur = getBatch()
}

// execute runs the program with one goroutine per analysis reading
// the batches, and returns once every one of them has returned. After
// a failed run, the analyses skip the batches still queued.
func (r *recorder) execute(m *interp.Machine, as []*analysis) (res interp.Result, err error) {
	var wg sync.WaitGroup
	r.cur = getBatch()
	r.queue = make([]chan *batch, len(as))
	for i, a := range as {
		r.queue[i] = make(chan *batch, queueDepth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.consume(r.queue[i], &r.stop)
		}()
	}
	ok := false
	defer func() {
		if !ok {
			r.stop.Store(true)
		} else if r.cur.n > 0 {
			r.send()
		}
		putBatch(r.cur) // the batch being filled, which no analysis reads
		for _, q := range r.queue {
			close(q)
		}
		wg.Wait()
	}()
	res, err = m.Run()
	ok = err == nil
	return res, err
}

// analysis is the shadow analysis of one profiled loop. It runs on its
// own goroutine, and touches only the shadow pages and dense tables
// indexed by access-site ID; the Graph's maps are filled once, by
// finish.
type analysis struct {
	id    int32
	graph *ddg.Graph
	sh    shadow.Table[cell]
	// wrote flags each page (addr>>shadow.PageBits) that a store or
	// definition made during an instance of the loop wrote. Between
	// instances only such pages can hold history that matters, so the
	// analysis skips every other page there (see load).
	wrote []bool
	err   error

	inLoop   bool
	instance int32 // current loop instance, starting at 1
	iter     int32 // current 0-based iteration within the instance

	// Per-site tables, indexed by access ID (1..NumAccesses).
	isDef    []bool  // definition sites (see DefSites), shared
	sites    []int64 // executions inside the loop (Graph.Sites)
	defs     []int64 // definition executions inside the loop (Graph.Defs)
	up, down []bool  // Graph.UpwardExposed, Graph.DownwardExposed
	// pending holds the current run of identical edges per (dst, kind,
	// carried), indexed by edgeSlot: the bytes of one access and the
	// repeated executions of one site mostly repeat one edge, and a
	// run costs one Graph update when it ends.
	pending []edgeRun
}

// touchMemo remembers the last two blocks a site touched, most recent
// first: while the memory's live-block generation is unchanged, any
// address inside one of them has an origin already recorded for the
// site. Two entries cover a site that alternates between two blocks,
// such as a helper called on a source and a destination buffer.
type touchMemo struct {
	gen    uint64
	blocks [2]blockRange
}

type blockRange struct{ lo, hi int64 }

func (b blockRange) has(addr int64) bool { return b.lo <= addr && addr < b.hi }

// edgeRun is n occurrences of the edge from src to the slot's site.
type edgeRun struct {
	src int32
	n   int64
}

func newAnalysis(id int32, g *ddg.Graph, isDef []bool) *analysis {
	n := len(isDef)
	return &analysis{
		id:      id,
		graph:   g,
		isDef:   isDef,
		sites:   make([]int64, n),
		defs:    make([]int64, n),
		up:      make([]bool, n),
		down:    make([]bool, n),
		pending: make([]edgeRun, n*slotsPerSite),
	}
}

// consume applies the batches of q in order and then finishes the
// graph, unless stop is set. A panic ends the analysis with an error,
// and consume goes on releasing batches, so the interpreter never
// blocks on a queue nobody reads.
func (a *analysis) consume(q <-chan *batch, stop *atomic.Bool) {
	for b := range q {
		if a.err == nil && !stop.Load() {
			a.err = a.recovered(func() { a.apply(b.ev[:b.n]) })
		}
		b.release()
	}
	if a.err == nil && !stop.Load() {
		a.err = a.recovered(a.finish)
	}
}

// recovered calls f and returns a panic in it as an error: the
// analysis runs on a goroutine of its own, where a panic would kill
// the process.
func (a *analysis) recovered(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("profile: analysis of loop %d: %v", a.id, v)
		}
	}()
	f()
	return nil
}

func (a *analysis) apply(evs []event) {
	for i := range evs {
		e := &evs[i]
		switch e.kind {
		case evLoad:
			a.load(int(e.site), e.addr, e.size)
		case evStore:
			a.store(int(e.site), e.addr, e.size)
		case evEnter:
			if e.site == a.id {
				a.inLoop = true
				a.instance++
				a.iter = -1 // LoopIter fires before the first body execution
			}
		case evIter:
			if e.site == a.id {
				a.iter = int32(e.addr)
			}
		case evExit:
			if e.site == a.id {
				a.inLoop = false
			}
		}
	}
}

// slotsPerSite is the number of pending edge runs per destination
// site: one per dependence kind (flow, anti, output) and carriedness.
const slotsPerSite = 3 * 2

func edgeSlot(dst int, kind ddg.DepKind, carried bool) int {
	i := (dst*3 + int(kind)) * 2
	if carried {
		i++
	}
	return i
}

// edge records n occurrences of a dependence, extending the current
// run of its (dst, kind, carried) slot when the source matches.
func (a *analysis) edge(src int32, dst int, kind ddg.DepKind, carried bool, n int64) {
	r := &a.pending[edgeSlot(dst, kind, carried)]
	if r.src != src {
		if r.n > 0 {
			a.graph.AddEdgeN(int(r.src), dst, kind, carried, r.n)
		}
		*r = edgeRun{src: src}
	}
	r.n += n
}

// finish flushes the pending edge runs and folds the dense per-site
// tables into the Graph.
func (a *analysis) finish() {
	g := a.graph
	for i, r := range a.pending {
		if r.n > 0 {
			g.AddEdgeN(int(r.src), i/slotsPerSite, ddg.DepKind(i/2%3), i%2 == 1, r.n)
		}
	}
	for s := range a.sites {
		if a.sites[s] > 0 {
			g.Sites[s] = a.sites[s]
		}
		if a.defs[s] > 0 {
			g.Defs[s] = a.defs[s]
		}
		if a.up[s] {
			g.UpwardExposed[s] = true
		}
		if a.down[s] {
			g.DownwardExposed[s] = true
		}
	}
}

// touch records the origin of the block an in-loop access at site hit.
func (l *tracker) touch(m *mem.Memory, site int, addr int64) {
	tm := &l.touched[site]
	if gen := m.Gen(); tm.gen != gen {
		*tm = touchMemo{gen: gen}
	} else if tm.blocks[0].has(addr) {
		return
	} else if tm.blocks[1].has(addr) {
		tm.blocks[0], tm.blocks[1] = tm.blocks[1], tm.blocks[0]
		return
	}
	o := Origin{Kind: OriginOther}
	if b, ok := m.Block(addr); ok {
		tm.blocks[0], tm.blocks[1] = blockRange{b.Base, b.End()}, tm.blocks[0]
		switch {
		case b.Site > 0:
			o = Origin{Kind: OriginHeap, Site: b.Site}
		case len(b.Label) > 7 && b.Label[:7] == "global ":
			o = Origin{Kind: OriginGlobal, Name: b.Label[7:]}
		case b.Label == "stack":
			o = Origin{Kind: OriginStack}
		}
	}
	set := l.res.Touched[site]
	if set == nil {
		set = map[Origin]bool{}
		l.res.Touched[site] = set
	}
	set[o] = true
}

// flagged reports whether page pg is flagged in a.wrote.
func (a *analysis) flagged(pg int64) bool {
	return pg < int64(len(a.wrote)) && a.wrote[pg]
}

// flag sets the wrote flag of the pages [addr, end) lies on.
func (a *analysis) flag(addr, end int64) {
	last := (end - 1) >> shadow.PageBits
	for last >= int64(len(a.wrote)) {
		a.wrote = append(a.wrote, false)
	}
	for pg := addr >> shadow.PageBits; pg <= last; pg++ {
		a.wrote[pg] = true
	}
}

// pageEnd returns the end of the part of [addr, end) on addr's page.
func pageEnd(addr, end int64) int64 { return min(end, (addr|shadow.PageMask)+1) }

// load and store apply the rules of one access. Inside the loop they
// classify a run of bytes with identical shadow history once: the bytes
// of one access were mostly last written (and read) by one access, so a
// run is usually the whole access.
//
// Outside the loop they skip every page no instance of the loop has
// written (see analysis.wrote), and loads write no reader stamp. This
// leaves the profile unchanged. Every instance starts with a LoopEnter,
// which numbers it above every stamp already made. A reader stamp made
// outside the loop, or in an earlier instance, can therefore never
// match a later store's instance. A writer stamp with instance 0
// behaves like a zero cell in every check below, and an unflagged page
// holds no other writer stamps.
func (a *analysis) load(site int, addr, size int64) {
	end := addr + size
	if !a.inLoop {
		// A read after the loop: any value last written inside
		// some instance makes that store downwards-exposed.
		for addr < end {
			next := pageEnd(addr, end)
			if a.flagged(addr >> shadow.PageBits) {
				for _, c := range a.sh.Span(addr, next) {
					if c.w.site != 0 && c.w.inst > 0 {
						a.down[c.w.site] = true
					}
				}
			}
			addr = next
		}
		return
	}
	a.sites[site]++
	rd := stamp{site: int32(site), inst: a.instance, iter: a.iter}
	for addr < end {
		cs := a.sh.Span(addr, end)
		addr += int64(len(cs))
		for len(cs) > 0 {
			w := cs[0].w
			n := 1
			for n < len(cs) && cs[n].w == w {
				n++
			}
			if w.site == 0 || w.inst != rd.inst {
				// Value comes from outside this loop instance.
				a.up[site] = true
				if w.site != 0 && w.inst > 0 {
					// ... and from a store of an earlier instance:
					// that store's value survived the loop exit.
					a.down[w.site] = true
				}
			} else {
				a.edge(w.site, site, ddg.Flow, w.iter != rd.iter, int64(n))
			}
			for i := range cs[:n] {
				cs[i].r = rd
			}
			cs = cs[n:]
		}
	}
}

func (a *analysis) store(site int, addr, size int64) {
	end := addr + size
	if a.isDef[site] {
		// Definition sites (declarations and allocations) kill the
		// shadow history of their bytes: a recycled stack slot or heap
		// address is a fresh object, not a dependence on its previous
		// tenant. Whole pages are filled lazily.
		fresh := cell{w: stamp{site: int32(site)}}
		if a.inLoop {
			fresh.w.inst, fresh.w.iter = a.instance, a.iter
			a.defs[site]++
			a.flag(addr, end)
			a.sh.Fill(addr, end, fresh)
			return
		}
		for addr < end {
			next := pageEnd(addr, end)
			if a.flagged(addr >> shadow.PageBits) {
				a.sh.Fill(addr, next, fresh)
			}
			addr = next
		}
		return
	}
	if !a.inLoop {
		wr := stamp{site: int32(site)}
		for addr < end {
			next := pageEnd(addr, end)
			if a.flagged(addr >> shadow.PageBits) {
				cs := a.sh.Span(addr, next)
				for i := range cs {
					cs[i].w = wr
				}
			}
			addr = next
		}
		return
	}
	a.sites[site]++
	a.flag(addr, end)
	wr := stamp{site: int32(site), inst: a.instance, iter: a.iter}
	for addr < end {
		cs := a.sh.Span(addr, end)
		addr += int64(len(cs))
		for len(cs) > 0 {
			c := cs[0]
			n := 1
			for n < len(cs) && cs[n] == c {
				n++
			}
			// Anti dependence from the last reader.
			if c.r.site != 0 && c.r.inst == wr.inst {
				a.edge(c.r.site, site, ddg.Anti, c.r.iter != wr.iter, int64(n))
			}
			// Output dependence from the last writer.
			if c.w.site != 0 && c.w.inst == wr.inst {
				a.edge(c.w.site, site, ddg.Output, c.w.iter != wr.iter, int64(n))
			}
			for i := range cs[:n] {
				cs[i].w = wr
			}
			cs = cs[n:]
		}
	}
}
