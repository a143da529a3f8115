package interp

import (
	"sync/atomic"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/mem"
	"gdsx/internal/token"
)

// thread is one simulated execution context: a thread index, a private
// stack region inside the shared memory, and instruction counters.
type thread struct {
	m   *Machine
	tid int

	stackBase int64
	sp        int64
	stackEnd  int64

	counters [NumCats]int64
	memOps   int64
	memMiss  int64

	// cacheTags models a 64 KiB 4-way set-associative per-thread cache
	// (256 sets x 4 ways of 64-byte lines, LRU within a set). Accesses
	// that miss it count as memory-system traffic for the schedule
	// simulator's bandwidth bound; hits are core-local.
	// Entry = line address + 1 (0 = empty); way 0 is most recent.
	cacheTags [256][4]int64

	// ts is non-nil while tracing a parallel loop instance.
	ts *traceState

	// order is non-nil while executing iterations of a DOACROSS loop;
	// curIter is the 0-based iteration the thread is executing and
	// posted records whether the ordered section was already signalled.
	order   *orderState
	curIter int64
	posted  bool

	// inOrdered is set between SyncWait and SyncPost, so the access
	// monitor can tell synchronized accesses apart.
	inOrdered bool

	// cancel is shared by all workers of a parallel region; a worker
	// that faults sets it so its siblings stop at the next safe point.
	cancel *atomic.Bool

	// retVal holds the value of an executed return statement.
	retVal value
	// retBuf carries a returned struct across finishCall's stack reset.
	retBuf []byte

	// The frame stack (see pushFrame): depth live activation records,
	// whose slot tables and register files are bump-allocated from
	// slotBuf and regBuf at slotTop and regTop. maxDepth is the call
	// depth bound, min(StackSize/8, maxCallDepth).
	frames   []frame
	depth    int
	maxDepth int
	slotBuf  []int64
	slotTop  int
	regBuf   []value
	regTop   int

	// parallel marks threads executing inside a parallel loop; nested
	// parallel loops then run sequentially, as with non-nested OpenMP.
	parallel bool

	// isMain gates the profiling hooks to sequential execution.
	isMain bool
}

// maxCallDepth caps the call depth of every thread, sequential or
// worker, so both fault at the same depth. Each interpreted call holds
// about 1.7 KB of Go stack, so a runaway recursion costs a thread about
// 14 MB before it faults, and every worker of a region that runs at
// the time can be that deep at once.
const maxCallDepth = 8192

func (m *Machine) newThread(tid int) (*thread, error) {
	base, err := m.mem.Alloc(m.opts.StackSize, 0, "stack")
	if err != nil {
		return nil, err
	}
	return &thread{
		m: m, tid: tid,
		stackBase: base, sp: base, stackEnd: base + m.opts.StackSize,
		maxDepth: int(min(m.opts.StackSize/8, maxCallDepth)),
		isMain:   tid == 0 && !m.inParallel,
	}, nil
}

// release frees the thread's stack region.
func (t *thread) release() {
	_ = t.m.mem.Free(t.stackBase)
}

// allocTid routes this thread's heap allocations: workers inside a
// parallel region allocate from their per-thread metadata arena
// (mem.AllocOn), sequential execution takes the allocator's global
// path — keeping sequential runs bit-identical to the unsharded
// allocator.
func (t *thread) allocTid() int {
	if t.parallel {
		return t.tid
	}
	return -1
}

// alloca reserves size bytes on the thread stack, 8-byte aligned.
func (t *thread) alloca(size int64, pos token.Pos) int64 {
	size = (size + 7) &^ 7
	if t.sp+size > t.stackEnd {
		rterrf(pos, "stack overflow (%d-byte frame, %d free)", size, t.stackEnd-t.sp)
	}
	a := t.sp
	t.sp += size
	// Stack slots are reused; zero them so programs see deterministic
	// values, mirroring the allocator's zeroing of heap blocks. clear
	// compiles to a runtime memclr instead of a byte loop. The write
	// bypasses the Store paths, so tell the region snapshot (if one is
	// active) before destroying the bytes.
	t.m.mem.NoteWrite(a, size)
	clear(t.m.mem.Bytes(a, size))
	return a
}

// frame is one function activation. slots maps Symbol.Index of the
// function's params and locals to their memory addresses.
type frame struct {
	fn    *ast.FuncDecl
	slots []int64
	// regs holds the Go-native values of register-promoted scalars,
	// indexed like slots; empty unless the optimizing compiler promoted
	// something in this function. The promoted closures keep the
	// backing memory in sync (writes go through), so regs[i] always
	// equals a typed load of slots[i].
	regs []value
	// depth, slotBase and regBase are the thread's frame-stack tops
	// below this frame; popFrame restores them.
	depth, slotBase, regBase int
}

// pushFrame takes the activation record at the thread's current call
// depth, with nslots cleared slots and nregs cleared registers: a
// cleared slot reads as "declaration not executed yet", and a promoted
// register starts equal to its zeroed slot. Records, slot tables and
// register files are reused from call to call, so a call allocates
// nothing once the thread has been as deep before. The invariants:
//
//   - a frame is valid only until its call returns (popFrame); no hook
//     or compiled closure keeps a *frame beyond the call it was passed
//     to;
//   - every thread, parallel workers included, owns its frame stack,
//     so no frame is shared between threads; a worker reads the
//     spawning frame's slots only while the spawning thread waits for
//     the region to finish;
//   - popFrame restores the tops saved in the frame rather than
//     decrementing them, so a call abandoned by a contained panic
//     leaves at worst unused records above the live ones.
//
// The buffers grow by allocating a larger array without copying:
// live frames keep their slices into the old one, and entries of the
// new array below depth are never read.
func (t *thread) pushFrame(fn *ast.FuncDecl, nslots, nregs int, pos token.Pos) *frame {
	if t.depth >= t.maxDepth {
		// Also the bound for calls that reserve no simulated stack,
		// whose recursion the alloca check never sees.
		rterrf(pos, "stack overflow (call depth %d)", t.depth+1)
	}
	if t.depth == len(t.frames) {
		t.frames = make([]frame, max(2*len(t.frames), 32))
	}
	f := &t.frames[t.depth]
	f.fn, f.depth, f.slotBase, f.regBase = fn, t.depth, t.slotTop, t.regTop
	t.depth++
	if t.slotTop+nslots > len(t.slotBuf) {
		t.slotBuf = make([]int64, max(2*len(t.slotBuf), t.slotTop+nslots, 256))
	}
	f.slots = t.slotBuf[t.slotTop : t.slotTop+nslots : t.slotTop+nslots]
	clear(f.slots)
	t.slotTop += nslots
	f.regs = nil
	if nregs > 0 {
		if t.regTop+nregs > len(t.regBuf) {
			t.regBuf = make([]value, max(2*len(t.regBuf), t.regTop+nregs, 64))
		}
		f.regs = t.regBuf[t.regTop : t.regTop+nregs : t.regTop+nregs]
		clear(f.regs)
		t.regTop += nregs
	}
	return f
}

// popFrame releases f, the innermost live activation record, and any
// record a contained panic abandoned above it.
func (t *thread) popFrame(f *frame) {
	t.depth, t.slotTop, t.regTop = f.depth, f.slotBase, f.regBase
}

// bindArgs copies the already-evaluated argument values into fresh
// parameter slots of f. Struct arguments arrive as addresses and are
// copied by value.
func (t *thread) bindArgs(f *frame, args []value, pos token.Pos) {
	for i, p := range f.fn.Params {
		size := p.Type.Size()
		addr := t.alloca(size, pos)
		f.slots[p.Sym.Index] = addr
		if p.Type.Kind == ctypes.Struct {
			t.m.mem.Memcpy(addr, args[i].I, size)
		} else {
			t.storeTyped(addr, p.Type, args[i])
		}
		// Argument binding defines the parameter slot (see the matching
		// definition site created by sema).
		if h := t.m.opts.Hooks; h != nil {
			if h.Store != nil && t.isMain {
				h.Store(p.Acc.Store, addr, size)
			}
			if h.Observe != nil && t.observeOK(h, addr, size) {
				h.Observe(Access{Site: p.Acc.Store, Addr: addr, Size: size, Tid: t.tid,
					Iter: t.curIter, Store: true, Def: true, Ordered: t.inOrdered})
			}
		}
	}
}

// finishCall releases the callee's stack space and materializes the
// call's result value from the executed body's control outcome.
func (t *thread) finishCall(fn *ast.FuncDecl, mark int64, c ctrl, pos token.Pos) value {
	if c == ctrlReturn && fn.Ret.Kind == ctypes.Struct {
		// The returned struct may live in the callee frame; copy it
		// out through the thread's buffer before the stack region is
		// reused. The copy is a temporary of the caller's statement,
		// released with the enclosing block or loop iteration.
		size := fn.Ret.Size()
		t.retBuf = append(t.retBuf[:0], t.m.mem.Bytes(t.retVal.I, size)...)
		t.sp = mark
		dst := t.alloca(size, pos)
		copy(t.m.mem.Bytes(dst, size), t.retBuf)
		return iv(dst)
	}
	t.sp = mark
	if c == ctrlReturn {
		return t.retVal
	}
	// Falling off the end of a non-void function yields 0, which
	// matches what the benchmarks expect from C's main.
	return value{}
}

// callCompiled invokes a closure-compiled function with
// already-evaluated argument values. args is read before the body
// runs and not kept, so callers may pass a buffer on their Go stack.
func (t *thread) callCompiled(cf *compiledFunc, args []value, pos token.Pos) value {
	mark := t.sp
	f := t.pushFrame(cf.fn, cf.fn.NumSlots, cf.nregs, pos)
	t.bindArgs(f, args, pos)
	// Promoted parameters start life holding their bound argument
	// (already converted to the parameter type by the call site).
	for _, pp := range cf.pparams {
		f.regs[pp.slot] = args[pp.arg]
	}
	c := cf.body(t, f)
	t.popFrame(f)
	return t.finishCall(cf.fn, mark, c, pos)
}

func (t *thread) count(cat int, n int64) { t.counters[cat] += n }

// observeOK reports whether the hook chain's Observe wants an event
// from t for [addr, addr+size). Two concessions narrow the feed (see
// Hooks.RegionOnly and Hooks.PrivateStacks): sequential-context events
// when every observing layer is region-only, and a worker's accesses
// to its own stack when every observing layer waived them. Skipped
// own-stack events include the matching definition events — the
// addresses are never checked, so their history never needs resetting.
func (t *thread) observeOK(h *Hooks, addr, size int64) bool {
	if h.RegionOnly && !t.parallel {
		return false
	}
	if h.PrivateStacks && t.parallel && addr >= t.stackBase && addr+size <= t.stackEnd {
		return false
	}
	return true
}

// checkAccess validates a memory access against the reserved null page
// and the capacity of the simulated memory, raising a positioned
// runtime error instead of crashing the interpreter. It runs after
// Redirect, on the address the program actually touches.
func (t *thread) checkAccess(pos token.Pos, addr, size int64) {
	if addr >= mem.NullGuard && addr+size <= t.m.mem.Cap() && size >= 0 {
		return
	}
	if addr >= 0 && addr < mem.NullGuard {
		rterrf(pos, "null pointer dereference (address %d)", addr)
	}
	rterrf(pos, "out-of-bounds access at address %d (%d bytes, memory capacity %d)",
		addr, size, t.m.mem.Cap())
}
