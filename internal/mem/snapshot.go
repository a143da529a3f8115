package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Region-scoped snapshots: an incremental write log over the simulated
// memory. BeginSnapshot arms the log; from then on every store path
// saves the pre-image of a 4 KiB page the first time the page is
// written. Rollback copies the saved pages back and restores the
// allocator metadata captured at Begin, returning the memory to its
// exact pre-region state; Commit discards the log. The cost is
// proportional to the pages the region touches, not to the heap size —
// the property that makes per-region checkpointing affordable (the
// guarded-execution recovery path takes one per parallel region).
//
// Concurrency: parallel workers write the memory unsynchronized (that
// is the simulation's point), so the page log uses a per-page atomic
// claim. The first writer to reach an untouched page CAS-claims it,
// copies the pre-image, then publishes the page as logged; concurrent
// writers of the same page spin until the pre-image is safely copied
// before mutating. This is correct because every mutation path calls
// touch before writing (the Store* methods, Memset, Memcpy, Alloc's
// zeroing, and NoteWrite for callers that write through Bytes).

const (
	snapPageBits = 12
	snapPageSize = 1 << snapPageBits
)

// Page-claim states in snapState.flags.
const (
	pageClean   uint32 = iota // not yet written under this snapshot
	pageClaimed               // a writer is copying the pre-image
	pageLogged                // pre-image saved; writes may proceed
)

type savedPage struct {
	base int64
	data []byte
}

// snapState is the shared write log. It is reachable from Memory.snap
// while the snapshot is active; workers race on flags only.
type snapState struct {
	flags []atomic.Uint32 // one per page, indexed by addr >> snapPageBits

	mu    sync.Mutex
	pages []savedPage
	bytes int64
}

// shardSnap captures one metadata arena at Begin time.
type shardSnap struct {
	live, free     []Block
	slabLo, slabHi int64
}

// Snapshot captures the restorable state of a Memory: the write log
// plus the allocator metadata — global index and per-thread arenas —
// at Begin time.
type Snapshot struct {
	st *snapState

	live          []Block
	freeList      []Block
	cursor        int64
	liveBytes     int64
	liveData      int64
	highWater     int64
	highWaterData int64
	allocs        int64
	shards        [numShards]shardSnap
	slabs         *[]slabRange
}

// touch logs the pre-image of every page overlapping [addr, addr+n)
// that has not been logged yet. It must run before the write it covers.
func (s *snapState) touch(data []byte, addr, n int64) {
	if n <= 0 {
		return
	}
	last := (addr + n - 1) >> snapPageBits
	for p := addr >> snapPageBits; p <= last; p++ {
		f := &s.flags[p]
		for {
			switch f.Load() {
			case pageLogged:
			case pageClean:
				if !f.CompareAndSwap(pageClean, pageClaimed) {
					continue // another writer got the claim; re-check
				}
				base := p << snapPageBits
				end := base + snapPageSize
				if end > int64(len(data)) {
					end = int64(len(data))
				}
				img := make([]byte, end-base)
				copy(img, data[base:end])
				s.mu.Lock()
				s.pages = append(s.pages, savedPage{base: base, data: img})
				s.bytes += int64(len(img))
				s.mu.Unlock()
				f.Store(pageLogged)
			default: // pageClaimed: another writer is copying; wait
				runtime.Gosched()
				continue
			}
			break
		}
	}
}

// BeginSnapshot arms the write log and captures the allocator
// metadata. Only one snapshot may be active at a time: parallel regions
// do not nest, so a second Begin while one is active is a caller bug.
func (m *Memory) BeginSnapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap != nil {
		panic("mem: BeginSnapshot with a snapshot already active")
	}
	s := &Snapshot{
		st: &snapState{
			flags: make([]atomic.Uint32, (int64(len(m.data))+snapPageSize-1)>>snapPageBits),
		},
		live:          append([]Block(nil), m.live...),
		freeList:      append([]Block(nil), m.freeList...),
		cursor:        m.cursor,
		liveBytes:     m.liveBytes.Load(),
		liveData:      m.liveData.Load(),
		highWater:     m.highWater.Load(),
		highWaterData: m.highWaterData.Load(),
		allocs:        m.allocs.Load(),
		slabs:         m.slabs.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.shards[i] = shardSnap{
			live:   append([]Block(nil), sh.live...),
			free:   append([]Block(nil), sh.free...),
			slabLo: sh.slabLo,
			slabHi: sh.slabHi,
		}
		sh.mu.Unlock()
	}
	m.snap = s.st
	return s
}

// Pages reports how many pages the write log holds and their total
// byte size — the incremental cost of the snapshot so far.
func (s *Snapshot) Pages() (pages int, bytes int64) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.st.pages), s.st.bytes
}

// Commit ends the snapshot keeping every write, and returns the size
// of the discarded log (the overhead the snapshot cost this region).
func (m *Memory) Commit(s *Snapshot) (pages int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap != s.st {
		panic("mem: Commit of an inactive snapshot")
	}
	m.snap = nil
	return len(s.st.pages), s.st.bytes
}

// Rollback ends the snapshot restoring the pre-images of every written
// page and the allocator metadata captured at Begin, and returns the
// restored log size. Allocations made since Begin vanish (their blocks
// return to the free list); frees since Begin are undone.
//
// The fault-injection countdown (SetFailAlloc) is deliberately
// disarmed rather than rewound: an injected fault that fired during
// the rolled-back attempt has made its point, and re-arming the
// counter would fire it at an unrelated allocation of the re-execution.
func (m *Memory) Rollback(s *Snapshot) (pages int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap != s.st {
		panic("mem: Rollback of an inactive snapshot")
	}
	m.snap = nil
	for _, p := range s.st.pages {
		copy(m.data[p.base:p.base+int64(len(p.data))], p.data)
	}
	m.live = s.live
	m.freeList = s.freeList
	m.cursor = s.cursor
	m.liveBytes.Store(s.liveBytes)
	m.liveData.Store(s.liveData)
	m.highWater.Store(s.highWater)
	m.highWaterData.Store(s.highWaterData)
	m.allocs.Store(s.allocs)
	m.failAt.Store(0)
	m.slabs.Store(s.slabs)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.live = s.shards[i].live
		sh.free = s.shards[i].free
		sh.slabLo, sh.slabHi = s.shards[i].slabLo, s.shards[i].slabHi
		sh.mu.Unlock()
	}
	m.gen.Add(1)
	return len(s.st.pages), s.st.bytes
}

// NoteWrite records an impending raw write to [addr, addr+n) with the
// active snapshot (no-op without one). Callers that mutate memory
// through the Bytes slice — bypassing the Store*/Memset/Memcpy methods
// — must call it before writing, or rollback cannot restore the bytes.
func (m *Memory) NoteWrite(addr, n int64) {
	if s := m.snap; s != nil {
		s.touch(m.data, addr, n)
	}
}
