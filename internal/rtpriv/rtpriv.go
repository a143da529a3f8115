// Package rtpriv implements the paper's comparison baseline (§4.2.1):
// runtime privatization in the style of SpiceC. The original,
// untransformed program runs with an access-control monitor attached;
// every thread-private memory access (per Definition 5) is intercepted,
// the containing data structure is located via the allocator metadata
// (the safe extension of SpiceC's "heap prefix" that tolerates interior
// pointers), and the access is redirected to a thread-local copy that
// is created — and filled from the shared space — on first touch.
//
// Each monitored access is charged a simulated op cost covering the
// runtime call, the block lookup and the map probe; copy-ins are
// charged per word. These charges flow into the interpreter's work
// counters, so the schedule simulator and the wall-clock measurements
// both see the monitoring overhead that makes this approach lose to
// compile-time expansion (paper Figures 10 and 13).
package rtpriv

import (
	"math/bits"
	"sync"

	"gdsx/internal/interp"
)

// Model holds the simulated cost constants of the monitor.
type Model struct {
	// AccessBase is charged on every monitored access: the runtime
	// call, the heap-prefix/block lookup and the private-map probe.
	AccessBase int64
	// LookupPerLevel is charged per binary-search level of the block
	// lookup.
	LookupPerLevel int64
	// CopySetup and CopyPerWord are charged when a private copy is
	// created and filled from the shared space.
	CopySetup   int64
	CopyPerWord int64
}

// DefaultModel returns monitor costs calibrated against SpiceC-class
// software access control: every monitored access pays a runtime call,
// a hash/heap-prefix probe and bookkeeping — one to two orders of
// magnitude more than the plain access it replaces, which is what makes
// the paper's Figures 10 and 13 come out the way they do.
func DefaultModel() Model {
	return Model{AccessBase: 110, LookupPerLevel: 5, CopySetup: 80, CopyPerWord: 1}
}

// Stats reports what the monitor did during a run.
type Stats struct {
	Monitored   int64 // accesses intercepted and redirected
	Copies      int64 // private copies created
	CopiedBytes int64 // bytes copied in
}

// Runtime is the privatization monitor for one program run. Create it
// with New, install Hooks() into the interpreter options, Bind the
// machine, then run.
type Runtime struct {
	model   Model
	private map[int]bool
	m       *interp.Machine

	mu     sync.Mutex
	active bool
	copies []map[int64]int64 // per-tid: shared block base -> private copy base

	stats Stats
}

// New creates a monitor redirecting the given private access sites
// (Definition 5 classification of the target loop(s)).
func New(privateSites []int, model Model) *Runtime {
	p := map[int]bool{}
	for _, s := range privateSites {
		p[s] = true
	}
	return &Runtime{model: model, private: p}
}

// Bind attaches the machine whose memory the monitor manages. Must be
// called before the machine runs.
func (r *Runtime) Bind(m *interp.Machine) { r.m = m }

// Stats returns monitor statistics after a run.
func (r *Runtime) Stats() Stats { return r.stats }

// Hooks returns the interpreter hooks implementing the monitor.
func (r *Runtime) Hooks() *interp.Hooks {
	return &interp.Hooks{
		Redirect:      r.redirect,
		Free:          r.invalidate,
		ParallelStart: r.start,
		ParallelEnd:   r.end,
	}
}

func (r *Runtime) start(loopID, nthreads int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.copies = make([]map[int64]int64, nthreads)
	for i := range r.copies {
		r.copies[i] = map[int64]int64{}
	}
	r.active = true
}

func (r *Runtime) end(loopID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = false
	for _, m := range r.copies {
		for _, copyBase := range m {
			_ = r.m.Mem().Free(copyBase)
		}
	}
	r.copies = nil
}

// invalidate drops private copies of a freed shared block so a later
// allocation reusing the address cannot see stale private data.
func (r *Runtime) invalidate(base int64) {
	if !r.active {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.copies {
		if copyBase, ok := m[base]; ok {
			_ = r.m.Mem().Free(copyBase)
			delete(m, base)
		}
	}
}

// redirect is the per-access monitor. It runs on the accessing thread.
// Its own thread's copy map is shared with invalidate, which any worker
// freeing a block runs over every thread's map, so the map probe, the
// copy-in and the stats update all hold the lock.
func (r *Runtime) redirect(site int, addr, size int64, tid int) (int64, int64) {
	if !r.active || !r.private[site] {
		return addr, 0
	}
	if tid >= len(r.copies) {
		return addr, 0
	}
	mem := r.m.Mem()
	blk, ok := mem.Block(addr)
	if !ok {
		return addr, r.model.AccessBase
	}
	cost := r.model.AccessBase +
		r.model.LookupPerLevel*int64(bits.Len(uint(mem.Stats().Blocks)))
	r.mu.Lock()
	defer r.mu.Unlock()
	copies := r.copies[tid]
	copyBase, ok := copies[blk.Base]
	if !ok {
		nb, err := mem.Alloc(blk.Size, 0, "rtpriv")
		if err != nil {
			// Out of memory for copies: fall back to the shared block
			// (the run will fail on a real race; benchmarks size
			// memory to avoid this).
			return addr, cost
		}
		mem.Memcpy(nb, blk.Base, blk.Size)
		copies[blk.Base] = nb
		copyBase = nb
		cost += r.model.CopySetup + r.model.CopyPerWord*(blk.Size+7)/8
		r.stats.Copies++
		r.stats.CopiedBytes += blk.Size
	}
	r.stats.Monitored++
	return copyBase + (addr - blk.Base), cost
}
