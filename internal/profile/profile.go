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
// Every access of the run goes through the hooks, so they touch no Go
// map per byte. The shadow is a flat page table indexed by address
// (package shadow), walked one page span per access, and a run of
// bytes with identical history is classified once. Site counts,
// definition counts, exposed flags and definition-site membership are
// slices indexed by access ID, folded into the Graph's maps once after
// the run. Each (destination site, kind, carried) slot keeps the run of
// identical edges it is extending, so the bytes of one access and the
// repeated executions of one site cost one Graph.AddEdgeN per run.
// Touched origins are remembered per site as the last two blocks seen,
// for as long as the memory's live-block generation (mem.Memory.Gen)
// stays unchanged. Callers that profile several loops can pass one
// arena in the options' Memory and Reset it between loops, as the
// gdsx package's arena pool does.
package profile

import (
	"fmt"

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
// sequentially. The returned graph contains every dependence observed
// on any dynamic instance of the loop.
func Loop(prog *ast.Program, info *sema.Info, loopID int, opts interp.Options) (*Result, error) {
	if _, ok := info.Loops[loopID]; !ok {
		return nil, fmt.Errorf("profile: no loop with ID %d", loopID)
	}
	res := &Result{
		Graph:   ddg.NewGraph(loopID),
		Touched: map[int]map[Origin]bool{},
	}
	p := newProfiler(res, prog.NumAccesses, DefSites(info))
	hooks := &interp.Hooks{
		LoopEnter: func(id int) {
			if id == loopID {
				p.inLoop = true
				p.instance++
				p.iter = -1 // LoopIter fires before the first body execution
			}
		},
		LoopIter: func(id int, it int64) {
			if id == loopID {
				p.iter = int32(it)
				res.Iterations++
			}
		},
		LoopExit: func(id int) {
			if id == loopID {
				p.inLoop = false
			}
		},
		Load:  p.load,
		Store: p.store,
	}
	opts.NumThreads = 1
	opts.Hooks = hooks
	opts.ForceSequential = true
	m := interp.New(prog, info, opts)
	p.mem = m.Mem()
	r, err := m.Run()
	if err != nil {
		return nil, err
	}
	p.finish()
	res.Run = r
	return res, nil
}

// profiler is the state of one profiling run. The hooks touch only the
// shadow pages and dense tables indexed by access-site ID; the Graph's
// maps are filled once, by finish.
type profiler struct {
	res *Result
	mem *mem.Memory
	sh  shadow.Table[cell]

	inLoop   bool
	instance int32 // current loop instance, starting at 1
	iter     int32 // current 0-based iteration within the instance

	// Per-site tables, indexed by access ID (1..NumAccesses).
	isDef    []bool  // definition sites (see DefSites)
	sites    []int64 // executions inside the loop (Graph.Sites)
	defs     []int64 // definition executions inside the loop (Graph.Defs)
	up, down []bool  // Graph.UpwardExposed, Graph.DownwardExposed
	touched  []touchMemo
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

func newProfiler(res *Result, numAccesses int, defSites map[int]bool) *profiler {
	n := numAccesses + 1
	p := &profiler{
		res:     res,
		isDef:   make([]bool, n),
		sites:   make([]int64, n),
		defs:    make([]int64, n),
		up:      make([]bool, n),
		down:    make([]bool, n),
		touched: make([]touchMemo, n),
		pending: make([]edgeRun, n*slotsPerSite),
	}
	for s := range defSites {
		p.isDef[s] = true
	}
	return p
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
func (p *profiler) edge(src int32, dst int, kind ddg.DepKind, carried bool, n int64) {
	r := &p.pending[edgeSlot(dst, kind, carried)]
	if r.src != src {
		if r.n > 0 {
			p.res.Graph.AddEdgeN(int(r.src), dst, kind, carried, r.n)
		}
		*r = edgeRun{src: src}
	}
	r.n += n
}

// finish flushes the pending edge runs and folds the dense per-site
// tables into the Graph.
func (p *profiler) finish() {
	g := p.res.Graph
	for i, r := range p.pending {
		if r.n > 0 {
			g.AddEdgeN(int(r.src), i/slotsPerSite, ddg.DepKind(i/2%3), i%2 == 1, r.n)
		}
	}
	for s := range p.sites {
		if p.sites[s] > 0 {
			g.Sites[s] = p.sites[s]
		}
		if p.defs[s] > 0 {
			g.Defs[s] = p.defs[s]
		}
		if p.up[s] {
			g.UpwardExposed[s] = true
		}
		if p.down[s] {
			g.DownwardExposed[s] = true
		}
	}
}

// touch records the origin of the block an in-loop access at site hit.
func (p *profiler) touch(site int, addr int64) {
	tm := &p.touched[site]
	if gen := p.mem.Gen(); tm.gen != gen {
		*tm = touchMemo{gen: gen}
	} else if tm.blocks[0].has(addr) {
		return
	} else if tm.blocks[1].has(addr) {
		tm.blocks[0], tm.blocks[1] = tm.blocks[1], tm.blocks[0]
		return
	}
	o := Origin{Kind: OriginOther}
	if b, ok := p.mem.Block(addr); ok {
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
	set := p.res.Touched[site]
	if set == nil {
		set = map[Origin]bool{}
		p.res.Touched[site] = set
	}
	set[o] = true
}

// load and store are the Load and Store hooks. Inside the loop they
// classify a run of bytes with identical shadow history once: the bytes
// of one access were mostly last written (and read) by one access, so a
// run is usually the whole access.
func (p *profiler) load(site int, addr, size int64) {
	if site == 0 {
		return
	}
	end := addr + size
	if !p.inLoop {
		// A read after the loop: any value last written inside
		// some instance makes that store downwards-exposed.
		rd := stamp{site: int32(site)}
		for addr < end {
			cs := p.sh.Span(addr, end)
			addr += int64(len(cs))
			for i := range cs {
				c := &cs[i]
				if c.w.site != 0 && c.w.inst > 0 {
					p.down[c.w.site] = true
				}
				c.r = rd
			}
		}
		return
	}
	p.sites[site]++
	p.touch(site, addr)
	rd := stamp{site: int32(site), inst: p.instance, iter: p.iter}
	for addr < end {
		cs := p.sh.Span(addr, end)
		addr += int64(len(cs))
		for len(cs) > 0 {
			w := cs[0].w
			n := 1
			for n < len(cs) && cs[n].w == w {
				n++
			}
			if w.site == 0 || w.inst != rd.inst {
				// Value comes from outside this loop instance.
				p.up[site] = true
				if w.site != 0 && w.inst > 0 {
					// ... and from a store of an earlier instance:
					// that store's value survived the loop exit.
					p.down[w.site] = true
				}
			} else {
				p.edge(w.site, site, ddg.Flow, w.iter != rd.iter, int64(n))
			}
			for i := range cs[:n] {
				cs[i].r = rd
			}
			cs = cs[n:]
		}
	}
}

func (p *profiler) store(site int, addr, size int64) {
	if site == 0 {
		return
	}
	end := addr + size
	if p.isDef[site] {
		// Definition sites (declarations and allocations) kill the
		// shadow history of their bytes: a recycled stack slot or heap
		// address is a fresh object, not a dependence on its previous
		// tenant.
		fresh := cell{w: stamp{site: int32(site)}}
		if p.inLoop {
			fresh.w.inst, fresh.w.iter = p.instance, p.iter
			p.defs[site]++
		}
		for addr < end {
			cs := p.sh.Span(addr, end)
			addr += int64(len(cs))
			for i := range cs {
				cs[i] = fresh
			}
		}
		return
	}
	if !p.inLoop {
		wr := stamp{site: int32(site)}
		for addr < end {
			cs := p.sh.Span(addr, end)
			addr += int64(len(cs))
			for i := range cs {
				cs[i].w = wr
			}
		}
		return
	}
	p.sites[site]++
	p.touch(site, addr)
	wr := stamp{site: int32(site), inst: p.instance, iter: p.iter}
	for addr < end {
		cs := p.sh.Span(addr, end)
		addr += int64(len(cs))
		for len(cs) > 0 {
			c := cs[0]
			n := 1
			for n < len(cs) && cs[n] == c {
				n++
			}
			// Anti dependence from the last reader.
			if c.r.site != 0 && c.r.inst == wr.inst {
				p.edge(c.r.site, site, ddg.Anti, c.r.iter != wr.iter, int64(n))
			}
			// Output dependence from the last writer.
			if c.w.site != 0 && c.w.inst == wr.inst {
				p.edge(c.w.site, site, ddg.Output, c.w.iter != wr.iter, int64(n))
			}
			for i := range cs[:n] {
				cs[i].w = wr
			}
			cs = cs[n:]
		}
	}
}
