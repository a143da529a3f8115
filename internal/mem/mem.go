// Package mem implements the flat, byte-addressable simulated memory
// that MiniC programs execute against. All program data — globals,
// per-thread stacks and the heap — live in one shared byte array, so a
// MiniC address is simply an offset. This is what gives the paper's
// expansion arithmetic (copy t of a structure lives span bytes after
// copy t-1) its literal meaning, and what lets the dependence profiler
// observe every load and store.
//
// Loads and stores are unsynchronized, exactly like real memory;
// correctness of parallel execution relies on the transformation
// directing different threads to disjoint byte ranges. Allocation
// metadata is sharded: sequential allocations go through a global
// locked index, while small allocations by parallel-region workers go
// through per-thread arenas (see shard.go), so in-region malloc/free
// traffic does not serialize on one lock. Both paths support
// interior-pointer lookup, which the runtime-privatization baseline
// uses as its "heap prefix".
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gdsx/internal/obs"
)

// NullGuard is the number of reserved bytes at address 0 so that the
// null pointer never points into a valid object.
const NullGuard = 64

// ScanPolicy selects how Alloc scans the free list for a block.
type ScanPolicy int

const (
	// NextFit resumes scanning at the point where the previous
	// allocation was carved, wrapping around once (the default). On
	// allocation-heavy programs whose free list fragments, this turns
	// the scan from O(free blocks) per call into amortized O(1): the
	// cursor skips the long prefix of small holes that first-fit
	// re-examines on every single allocation.
	NextFit ScanPolicy = iota
	// FirstFit always scans from the lowest address (the reference
	// policy; packs tighter at the cost of rescanning fragments).
	FirstFit
)

// Block describes one live allocation.
type Block struct {
	Base int64
	Size int64
	// Site is the heap allocation-site ID for heap blocks, 0 otherwise.
	Site int
	// Label describes non-heap blocks ("global g", "stack t3", "str").
	Label string
}

// End returns the first address past the block.
func (b Block) End() int64 { return b.Base + b.Size }

// Memory is a simulated address space. The zero value is not usable;
// call New.
type Memory struct {
	data []byte

	mu sync.RWMutex
	// live is the global live-block index, sorted by base. One binary
	// search serves base-exact lookups (Free, Realloc) and
	// interior-pointer containment (Block) alike; keeping the blocks
	// themselves in the sorted slice — rather than a sorted base slice
	// pointing into a map — makes the hot Block lookup a single
	// cache-friendly search with no hashing, and snapshot capture a
	// flat copy.
	live     []Block
	freeList []Block // sorted by base, coalesced
	policy   ScanPolicy
	cursor   int64 // next-fit scan start (address, not index)

	// Accounting is atomic so the sharded allocation path updates it
	// without m.mu; the global path uses the same fields, and the
	// sequential values are exactly what the locked counters produced.
	liveBytes atomic.Int64
	highWater atomic.Int64
	allocs    atomic.Int64 // total number of successful allocations
	limit     atomic.Int64 // live-byte cap (0 = capacity only)
	failAt    atomic.Int64 // fault injection: fail when the countdown hits 0

	// Data-only accounting, excluding thread stacks: the paper's
	// Figure 14 measures program data, and Linux's lazy allocation
	// means unused stack reservations cost nothing there either.
	liveData      atomic.Int64
	highWaterData atomic.Int64

	// gen is the live-block generation (see Gen).
	gen atomic.Uint64

	// maxAddr is the highest address any allocation has ever reached,
	// the watermark that bounds Reset's data wipe: a pooled memory is
	// cleared up to here rather than over its full capacity.
	maxAddr atomic.Int64

	// shards are the per-thread metadata arenas and slabs the
	// copy-on-write registry of the address ranges they own (shard.go).
	shards [numShards]shard
	slabs  atomic.Pointer[[]slabRange]

	// snap is the active region snapshot's write log, nil outside one.
	// It is set and cleared only at parallel-region boundaries, which
	// happen-before/after all worker goroutines, so the plain reads in
	// the store paths are race-free.
	snap *snapState

	// obs is the allocator's observability feed, nil when disabled (set
	// once before execution starts, so the plain reads are race-free).
	obs *memObs
}

// memObs caches the allocator's observability instruments so the
// alloc/free paths update them without registry lookups.
type memObs struct {
	cAllocs  *obs.Counter
	cFrees   *obs.Counter
	cOOMs    *obs.Counter
	gLive    *obs.Gauge // tracked max gives the high-water mark
	hAllocSz *obs.Histogram
}

// SetObs attaches the observability layer: allocation/free/OOM
// counters, an allocation-size histogram and a live-byte gauge are
// updated on every allocator operation. Call before execution starts.
func (m *Memory) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	m.obs = &memObs{
		cAllocs:  o.Counter("mem.allocs"),
		cFrees:   o.Counter("mem.frees"),
		cOOMs:    o.Counter("mem.oom"),
		gLive:    o.Gauge("mem.live"),
		hAllocSz: o.Histogram("mem.alloc_size"),
	}
}

// noteAlloc records a successful allocation. Every instrument is
// atomic, so no allocator lock needs to be held.
func (ob *memObs) noteAlloc(size, live int64) {
	ob.cAllocs.Inc()
	ob.hAllocSz.Observe(size)
	ob.gLive.Set(live)
}

// New creates a memory of the given capacity in bytes.
func New(capacity int64) *Memory { return Over(make([]byte, capacity)) }

// Over creates a memory whose bytes are data, which must read zero.
// The memory owns data from then on; its capacity is len(data).
func Over(data []byte) *Memory {
	m := &Memory{data: data}
	m.freeList = []Block{{Base: NullGuard, Size: int64(len(data)) - NullGuard}}
	return m
}

// Cap returns the capacity of the memory.
func (m *Memory) Cap() int64 { return int64(len(m.data)) }

// SetScanPolicy selects the free-list scan policy for subsequent
// allocations. Programs must not depend on the address layout either
// way; see TestScanPolicyLayoutIndependence at the repository root.
func (m *Memory) SetScanPolicy(p ScanPolicy) {
	m.mu.Lock()
	m.policy = p
	m.cursor = 0
	m.mu.Unlock()
}

// SetLimit caps live allocated bytes at n (0 removes the cap, leaving
// only the capacity bound). Allocations that would push the live byte
// count past the limit fail like out-of-memory, which lets tests and
// operators bound a program's data footprint below the simulated
// capacity.
func (m *Memory) SetLimit(n int64) {
	m.limit.Store(n)
}

// SetFailAlloc arms the fault-injection hook: the nth Alloc call from
// now (1 = the very next) fails with an out-of-memory error. n <= 0
// disarms it. The counter includes every allocation — stacks, interned
// strings and heap blocks alike.
func (m *Memory) SetFailAlloc(n int64) {
	m.failAt.Store(n)
}

const align = 8

// Alloc reserves size bytes (rounded up to 8-byte alignment) and
// returns the base address. site tags heap allocations with their
// allocation-site ID; label tags everything else.
func (m *Memory) Alloc(size int64, site int, label string) (int64, error) {
	return m.AllocOn(-1, size, site, label)
}

// AllocOn reserves like Alloc, additionally routing small requests
// from parallel-region worker tid to that thread's metadata arena
// (shard.go). tid < 0 — sequential execution — and any request above
// shardMaxAlloc take the global path, which behaves bit-identically to
// the pre-sharding allocator.
func (m *Memory) AllocOn(tid int, size int64, site int, label string) (int64, error) {
	if size <= 0 {
		size = 1
	}
	size = (size + align - 1) &^ (align - 1)
	if m.tickFail() {
		m.noteOOM()
		return 0, fmt.Errorf("mem: out of memory allocating %d bytes (fault injection)", size)
	}
	if !m.reserve(size) {
		m.noteOOM()
		return 0, fmt.Errorf("mem: out of memory allocating %d bytes (limit %d, live %d)",
			size, m.limit.Load(), m.liveBytes.Load())
	}
	var base int64
	var err error
	if tid >= 0 && size <= shardMaxAlloc {
		base, err = m.shardAlloc(tid, size, site, label)
	} else {
		base, err = m.globalAlloc(size, site, label)
	}
	if err != nil {
		m.liveBytes.Add(-size)
		m.noteOOM()
		return 0, err
	}
	m.finishAlloc(base, size, label)
	return base, nil
}

// tickFail advances the fault-injection countdown by one allocation
// and reports whether this is the one that must fail.
func (m *Memory) tickFail() bool {
	for {
		v := m.failAt.Load()
		if v <= 0 {
			return false
		}
		if m.failAt.CompareAndSwap(v, v-1) {
			return v == 1
		}
	}
}

// reserve charges size bytes against the live count, enforcing the
// optional limit exactly even under concurrent allocation: the
// compare-and-swap never stores a count above the limit. Callers must
// un-reserve if the allocation subsequently fails.
func (m *Memory) reserve(size int64) bool {
	lim := m.limit.Load()
	for {
		live := m.liveBytes.Load()
		if lim > 0 && live+size > lim {
			return false
		}
		if m.liveBytes.CompareAndSwap(live, live+size) {
			return true
		}
	}
}

// finishAlloc completes a successful allocation from either path:
// high-water and data accounting, snapshot logging, zeroing, and
// observability.
func (m *Memory) finishAlloc(base, size int64, label string) {
	live := m.liveBytes.Load()
	atomicMax(&m.highWater, live)
	atomicMax(&m.maxAddr, base+size)
	m.allocs.Add(1)
	m.gen.Add(1)
	if label != "stack" {
		atomicMax(&m.highWaterData, m.liveData.Add(size))
	}
	// Zero the block: C malloc does not guarantee this, but MiniC
	// does, which keeps program output deterministic. clear compiles
	// to a runtime memclr instead of a byte-at-a-time loop. The
	// zeroing may destroy bytes that were live at snapshot time
	// (freed then reallocated), so it logs like any other write.
	if s := m.snap; s != nil {
		s.touch(m.data, base, size)
	}
	clear(m.data[base : base+size])
	if ob := m.obs; ob != nil {
		ob.noteAlloc(size, live)
	}
}

// atomicMax raises a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// globalAlloc carves size bytes from the global free list and indexes
// the block in the global live index.
func (m *Memory) globalAlloc(size int64, site int, label string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	base, ok := m.carve(size)
	if !ok {
		return 0, fmt.Errorf("mem: out of memory allocating %d bytes (capacity %d, live %d)",
			size, len(m.data), m.liveBytes.Load()-size)
	}
	m.live = insertSorted(m.live, Block{Base: base, Size: size, Site: site, Label: label})
	return base, nil
}

// carve removes size bytes from the global free list and returns the
// base address, or false when no free block fits. Called with m.mu
// held; advances the next-fit cursor.
func (m *Memory) carve(size int64) (int64, bool) {
	n := len(m.freeList)
	start := 0
	if m.policy == NextFit && m.cursor > 0 {
		// Resume at the free block containing the cursor (the carve
		// point may have coalesced into a larger hole), else the next
		// one after it.
		start = sort.Search(n, func(i int) bool { return m.freeList[i].End() > m.cursor })
		if start == n {
			start = 0
		}
	}
	for k := 0; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		f := m.freeList[i]
		if f.Size < size {
			continue
		}
		base := f.Base
		if f.Size == size {
			m.freeList = append(m.freeList[:i], m.freeList[i+1:]...)
		} else {
			m.freeList[i] = Block{Base: f.Base + size, Size: f.Size - size}
		}
		m.cursor = base + size
		return base, true
	}
	return 0, false
}

// noteOOM records a failed allocation.
func (m *Memory) noteOOM() {
	if ob := m.obs; ob != nil {
		ob.cOOMs.Inc()
	}
}

// Free releases the block with the given base address, routing it to
// the arena whose slab holds it or to the global index. Freeing
// address 0 is a no-op, as in C.
func (m *Memory) Free(base int64) error {
	if base == 0 {
		return nil
	}
	var b Block
	if si := m.slabOf(base); si >= 0 {
		var err error
		if b, err = m.shardFree(si, base); err != nil {
			return err
		}
	} else {
		m.mu.Lock()
		i := findBase(m.live, base)
		if i < 0 {
			m.mu.Unlock()
			return fmt.Errorf("mem: free of non-allocated address %d", base)
		}
		b = m.live[i]
		m.live = append(m.live[:i], m.live[i+1:]...)
		m.freeList = insertFreeSorted(m.freeList, Block{Base: b.Base, Size: b.Size})
		m.mu.Unlock()
	}
	m.gen.Add(1)
	live := m.liveBytes.Add(-b.Size)
	if b.Label != "stack" {
		m.liveData.Add(-b.Size)
	}
	if ob := m.obs; ob != nil {
		ob.cFrees.Inc()
		ob.gLive.Set(live)
	}
	return nil
}

// Realloc grows or shrinks the block at base to newSize, moving it if
// necessary, and returns the (possibly new) base address. Realloc of
// address 0 behaves like Alloc.
func (m *Memory) Realloc(base, newSize int64, site int) (int64, error) {
	return m.ReallocOn(-1, base, newSize, site)
}

// ReallocOn is Realloc with AllocOn's arena routing for the new block.
func (m *Memory) ReallocOn(tid int, base, newSize int64, site int) (int64, error) {
	if base == 0 {
		return m.AllocOn(tid, newSize, site, "")
	}
	old, ok := m.lookupExact(base)
	if !ok {
		return 0, fmt.Errorf("mem: realloc of non-allocated address %d", base)
	}
	nb, err := m.AllocOn(tid, newSize, site, old.Label)
	if err != nil {
		return 0, err
	}
	n := old.Size
	if newSize < n {
		n = newSize
	}
	copy(m.data[nb:nb+n], m.data[base:base+n])
	if err := m.Free(base); err != nil {
		return 0, err
	}
	return nb, nil
}

// lookupExact finds the live block based exactly at base in whichever
// index — arena or global — owns the address.
func (m *Memory) lookupExact(base int64) (Block, bool) {
	if si := m.slabOf(base); si >= 0 {
		sh := &m.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if i := findBase(sh.live, base); i >= 0 {
			return sh.live[i], true
		}
		return Block{}, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i := findBase(m.live, base); i >= 0 {
		return m.live[i], true
	}
	return Block{}, false
}

// insertSorted adds b to a live-block index sorted by base.
func insertSorted(s []Block, b Block) []Block {
	i := sort.Search(len(s), func(i int) bool { return s[i].Base >= b.Base })
	s = append(s, Block{})
	copy(s[i+1:], s[i:])
	s[i] = b
	return s
}

// findBase returns the index of the block based exactly at base, or -1.
func findBase(s []Block, base int64) int {
	i := sort.Search(len(s), func(i int) bool { return s[i].Base >= base })
	if i < len(s) && s[i].Base == base {
		return i
	}
	return -1
}

// insertFreeSorted adds a free block, coalescing with neighbors.
func insertFreeSorted(s []Block, b Block) []Block {
	i := sort.Search(len(s), func(i int) bool { return s[i].Base >= b.Base })
	// Coalesce with predecessor.
	if i > 0 && s[i-1].End() == b.Base {
		s[i-1].Size += b.Size
		// Coalesce predecessor with successor.
		if i < len(s) && s[i-1].End() == s[i].Base {
			s[i-1].Size += s[i].Size
			s = append(s[:i], s[i+1:]...)
		}
		return s
	}
	// Coalesce with successor.
	if i < len(s) && b.End() == s[i].Base {
		s[i].Base = b.Base
		s[i].Size += b.Size
		return s
	}
	s = append(s, Block{})
	copy(s[i+1:], s[i:])
	s[i] = b
	return s
}

// blockAt returns the block of a sorted live index containing addr
// (which may be an interior pointer), and whether one exists.
func blockAt(s []Block, addr int64) (Block, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Base > addr })
	if i == 0 {
		return Block{}, false
	}
	if b := s[i-1]; addr < b.End() {
		return b, true
	}
	return Block{}, false
}

// Block returns the live block containing addr (which may be an
// interior pointer), and whether one exists. This lookup is the
// equivalent of the SpiceC "heap prefix" walk, extended — as the paper
// describes — to be safe for pointers into the middle of an object.
func (m *Memory) Block(addr int64) (Block, bool) {
	if si := m.slabOf(addr); si >= 0 {
		return m.shardBlock(si, addr)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return blockAt(m.live, addr)
}

// Gen returns the live-block generation, a counter that every
// allocation, free, reallocation, Reset and Rollback advances. A result
// of Block stays valid for as long as Gen returns the same value, which
// lets a caller that looks up the same block repeatedly cache it.
func (m *Memory) Gen() uint64 { return m.gen.Load() }

// Stats reports allocator statistics.
type Stats struct {
	Live      int64 // bytes currently allocated
	HighWater int64 // maximum of Live over the run
	// HighWaterData is the high-water mark of non-stack allocations
	// (program data only), the quantity the paper's Figure 14 tracks.
	HighWaterData int64
	Allocs        int64 // number of Alloc calls
	Blocks        int   // live block count
}

// Stats returns a snapshot of allocator statistics.
func (m *Memory) Stats() Stats {
	m.mu.RLock()
	blocks := len(m.live)
	m.mu.RUnlock()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		blocks += len(sh.live)
		sh.mu.Unlock()
	}
	return Stats{
		Live: m.liveBytes.Load(), HighWater: m.highWater.Load(),
		HighWaterData: m.highWaterData.Load(), Allocs: m.allocs.Load(), Blocks: blocks,
	}
}

// ResetHighWater sets the high-water mark back to the current live
// byte count (used to measure a single phase of a program).
func (m *Memory) ResetHighWater() {
	m.highWater.Store(m.liveBytes.Load())
	m.highWaterData.Store(m.liveData.Load())
}

// Reset returns the memory to its freshly-created state so a pooled
// arena can be reused across runs: every block is released, the free
// list covers the whole address space again under the NextFit scan
// policy, shard arenas and the slab registry are emptied, accounting is
// zeroed, and the limit and fault-injection hooks are disarmed. The
// data wipe is proportional to the address high-water mark rather than
// the capacity, so pooling small runs in a large arena stays cheap. Not
// safe to call while any other operation on the memory is in flight.
func (m *Memory) Reset() {
	// Allocation zeroes every block it hands out, but wiping to the
	// watermark also erases freed-and-never-reused bytes, so a pooled
	// memory cannot leak one tenant's data into diagnostics of the next.
	clear(m.data[:m.maxAddr.Load()])
	m.mu.Lock()
	m.live = nil
	m.freeList = []Block{{Base: NullGuard, Size: int64(len(m.data)) - NullGuard}}
	m.policy = NextFit
	m.cursor = 0
	m.mu.Unlock()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.live = nil
		sh.free = nil
		sh.slabLo, sh.slabHi = 0, 0
		sh.mu.Unlock()
	}
	m.slabs.Store(nil)
	m.liveBytes.Store(0)
	m.liveData.Store(0)
	m.highWater.Store(0)
	m.highWaterData.Store(0)
	m.allocs.Store(0)
	m.maxAddr.Store(0)
	m.limit.Store(0)
	m.failAt.Store(0)
	m.snap = nil
	m.obs = nil
	m.gen.Add(1)
}

// Bytes returns the n bytes at addr as a slice aliasing the memory.
func (m *Memory) Bytes(addr, n int64) []byte { return m.data[addr : addr+n] }

// Load reads a little-endian value of the given byte size (1, 2, 4, 8).
// Sub-8 sizes are sign- or zero-extended by the caller.
func (m *Memory) Load(addr int64, size int) uint64 {
	switch size {
	case 1:
		return uint64(m.data[addr])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[addr:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[addr:]))
	case 8:
		return binary.LittleEndian.Uint64(m.data[addr:])
	}
	panic(fmt.Sprintf("mem: load size %d", size))
}

// Size-specialized load/store accessors. The closure-compiled
// execution engine resolves access widths at compile time and calls
// these directly, skipping the size switch of Load/Store; they are
// small enough for the Go compiler to inline into the access closures.

// Load1 reads one byte (zero-extended).
func (m *Memory) Load1(addr int64) uint64 { return uint64(m.data[addr]) }

// Load2 reads a little-endian 2-byte value.
func (m *Memory) Load2(addr int64) uint64 {
	return uint64(binary.LittleEndian.Uint16(m.data[addr:]))
}

// Load4 reads a little-endian 4-byte value.
func (m *Memory) Load4(addr int64) uint64 {
	return uint64(binary.LittleEndian.Uint32(m.data[addr:]))
}

// Load8 reads a little-endian 8-byte value.
func (m *Memory) Load8(addr int64) uint64 {
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// Store1 writes one byte.
func (m *Memory) Store1(addr int64, v uint64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, 1)
	}
	m.data[addr] = byte(v)
}

// Store2 writes a little-endian 2-byte value.
func (m *Memory) Store2(addr int64, v uint64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, 2)
	}
	binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
}

// Store4 writes a little-endian 4-byte value.
func (m *Memory) Store4(addr int64, v uint64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, 4)
	}
	binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
}

// Store8 writes a little-endian 8-byte value.
func (m *Memory) Store8(addr int64, v uint64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, 8)
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// Store writes a little-endian value of the given byte size.
func (m *Memory) Store(addr int64, size int, v uint64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, int64(size))
	}
	switch size {
	case 1:
		m.data[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], v)
	default:
		panic(fmt.Sprintf("mem: store size %d", size))
	}
}

// Memset fills n bytes at addr with v.
func (m *Memory) Memset(addr int64, v byte, n int64) {
	if sn := m.snap; sn != nil {
		sn.touch(m.data, addr, n)
	}
	s := m.data[addr : addr+n]
	if v == 0 {
		clear(s)
		return
	}
	for i := range s {
		s[i] = v
	}
}

// Memcpy copies n bytes from src to dst (regions may not overlap in
// MiniC programs; overlapping copies follow Go's copy semantics).
func (m *Memory) Memcpy(dst, src, n int64) {
	if s := m.snap; s != nil {
		s.touch(m.data, dst, n)
	}
	copy(m.data[dst:dst+n], m.data[src:src+n])
}
