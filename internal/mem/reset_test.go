package mem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestResetRestoresFreshState: after arbitrary traffic — global and
// sharded allocations, frees, a limit, armed fault injection — Reset
// must return the memory to its as-new state: empty indexes, zeroed
// accounting, a coalesced full-space free list, and the same address
// layout as a fresh memory on the next run.
func TestResetRestoresFreshState(t *testing.T) {
	m := New(1 << 20)
	fresh := New(1 << 20)

	m.SetLimit(1 << 19)
	m.SetFailAlloc(1_000_000)
	m.SetScanPolicy(FirstFit)
	var addrs []int64
	for i := 0; i < 16; i++ {
		a, err := m.Alloc(128, i, "")
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		m.Store8(a, 0xdeadbeef)
		addrs = append(addrs, a)
	}
	for tid := 0; tid < 4; tid++ {
		if _, err := m.AllocOn(tid, 64, 0, ""); err != nil {
			t.Fatalf("shard alloc: %v", err)
		}
	}
	if err := m.Free(addrs[3]); err != nil {
		t.Fatalf("free: %v", err)
	}

	m.Reset()

	st := m.Stats()
	if st.Live != 0 || st.HighWater != 0 || st.Allocs != 0 || st.Blocks != 0 {
		t.Fatalf("stats not zeroed after Reset: %+v", st)
	}
	if si := m.slabOf(addrs[0]); si >= 0 {
		t.Fatalf("slab registry survived Reset (addr %d -> shard %d)", addrs[0], si)
	}
	// The wiped region must read as zero.
	for _, a := range addrs {
		if v := m.Load8(a); v != 0 {
			t.Fatalf("address %d holds %#x after Reset", a, v)
		}
	}
	// A reset memory must replay a fresh memory's layout exactly.
	for i := 0; i < 8; i++ {
		ra, err1 := m.Alloc(96, i, "")
		fa, err2 := fresh.Alloc(96, i, "")
		if err1 != nil || err2 != nil {
			t.Fatalf("post-reset alloc: %v / %v", err1, err2)
		}
		if ra != fa {
			t.Fatalf("alloc %d: reset memory at %d, fresh memory at %d", i, ra, fa)
		}
	}
	// ...under the fresh memory's NextFit policy: once the free list
	// has holes, FirstFit (set before the Reset) would place the next
	// block in the first hole instead of past the last carve.
	holes := func(mm *Memory) int64 {
		for i := 0; i < 8; i++ {
			h, err1 := mm.Alloc(16, 0, "")
			_, err2 := mm.Alloc(16, 0, "")
			if err1 != nil || err2 != nil {
				t.Fatalf("hole pattern alloc: %v / %v", err1, err2)
			}
			if err := mm.Free(h); err != nil {
				t.Fatalf("hole pattern free: %v", err)
			}
		}
		a, err := mm.Alloc(16, 0, "")
		if err != nil {
			t.Fatalf("alloc after holes: %v", err)
		}
		return a
	}
	if ra, fa := holes(m), holes(fresh); ra != fa {
		t.Fatalf("scan policy survived Reset: next block at %d, fresh memory at %d", ra, fa)
	}
	// The limit and the armed fault injection must be gone.
	if _, err := m.Alloc(1<<19+64, 0, ""); err != nil {
		t.Fatalf("limit survived Reset: %v", err)
	}
}

// TestResetReuseAcrossRuns pools one memory across many simulated
// runs, each leaving garbage behind; every run must observe identical
// allocator behaviour.
func TestResetReuseAcrossRuns(t *testing.T) {
	m := New(1 << 20)
	var wantFirst int64 = -1
	for run := 0; run < 5; run++ {
		a, err := m.Alloc(256, 1, "")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if wantFirst < 0 {
			wantFirst = a
		} else if a != wantFirst {
			t.Fatalf("run %d: first alloc at %d, want %d", run, a, wantFirst)
		}
		m.Memset(a, 0xff, 256)
		for tid := 0; tid < 8; tid++ {
			if _, err := m.AllocOn(tid, 512, 2, ""); err != nil {
				t.Fatalf("run %d tid %d: %v", run, tid, err)
			}
		}
		m.Reset()
	}
}

// TestShardLimitNoOvershootConcurrent hammers the sharded allocation
// path from many goroutines under a live-byte limit: at no point may
// the accounted live bytes exceed the quota, and the survivors' sizes
// must sum to at most the quota. This is the service's tenant-quota
// guarantee: slab bump-allocation cannot overshoot, because the quota
// is reserved (atomically, add-then-undo) before any slab is touched.
func TestShardLimitNoOvershootConcurrent(t *testing.T) {
	const (
		limit   = 256 << 10
		workers = 8
		rounds  = 2000
		size    = 192 // sub-slab, so every request bump-allocates
	)
	m := New(8 << 20)
	m.SetLimit(limit)

	var (
		wg       sync.WaitGroup
		overshot atomic.Int64
		granted  atomic.Int64
		failed   atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var mine []int64
			for i := 0; i < rounds; i++ {
				a, err := m.AllocOn(tid, size, 7, "")
				if err != nil {
					failed.Add(1)
					// Free half of what we hold to let others proceed.
					for len(mine) > rounds/4 {
						last := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if ferr := m.Free(last); ferr != nil {
							t.Errorf("free: %v", ferr)
							return
						}
					}
					continue
				}
				granted.Add(1)
				mine = append(mine, a)
				if live := m.Stats().Live; live > limit {
					overshot.Store(live)
				}
			}
		}(w)
	}
	wg.Wait()
	if v := overshot.Load(); v > 0 {
		t.Fatalf("live bytes overshot the limit: %d > %d", v, limit)
	}
	if live := m.Stats().Live; live > limit {
		t.Fatalf("final live bytes %d exceed limit %d", live, limit)
	}
	if failed.Load() == 0 {
		t.Fatalf("limit never engaged (granted %d, failed 0): test is vacuous", granted.Load())
	}
}

// TestShardLimitExactBoundary: requests that exactly fill the quota
// succeed; one more byte fails; freeing restores headroom byte-exactly.
func TestShardLimitExactBoundary(t *testing.T) {
	m := New(1 << 20)
	m.SetLimit(4096)
	var addrs []int64
	for i := 0; i < 4096/256; i++ {
		a, err := m.AllocOn(i%4, 256, 0, "")
		if err != nil {
			t.Fatalf("alloc %d within quota: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	if _, err := m.AllocOn(0, 8, 0, ""); err == nil {
		t.Fatal("allocation past the quota succeeded")
	}
	if err := m.Free(addrs[0]); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := m.AllocOn(1, 256, 0, ""); err != nil {
		t.Fatalf("freed headroom not reusable: %v", err)
	}
}

// TestShardLimitFailedAllocUnreserves: a request that passes the quota
// reservation but fails at the capacity layer (memory too small for a
// slab or a block) must give its reservation back — otherwise failed
// allocations would permanently shrink the tenant's quota.
func TestShardLimitFailedAllocUnreserves(t *testing.T) {
	m := New(64 << 10) // smaller than limit+slab, so capacity fails first
	m.SetLimit(1 << 20)
	// Exhaust capacity with one big global block.
	hold, err := m.Alloc(48<<10, 0, "")
	if err != nil {
		t.Fatalf("setup alloc: %v", err)
	}
	before := m.Stats().Live
	if _, err := m.Alloc(32<<10, 0, ""); err == nil {
		t.Fatal("expected a capacity failure")
	}
	if after := m.Stats().Live; after != before {
		t.Fatalf("failed alloc leaked reservation: live %d -> %d", before, after)
	}
	if err := m.Free(hold); err != nil {
		t.Fatalf("free: %v", err)
	}
}

// TestResetWipeIsWatermarkBounded allocates a small footprint in a
// large arena and checks the watermark tracks the footprint, not the
// capacity (the property that makes pooled Reset cheap).
func TestResetWipeIsWatermarkBounded(t *testing.T) {
	m := New(64 << 20)
	a, err := m.Alloc(1024, 0, "")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if hw := m.maxAddr.Load(); hw > 1<<16 {
		t.Fatalf("watermark %d for a 1KiB footprint in a 64MiB arena", hw)
	}
	_ = a
	m.Reset()
	if hw := m.maxAddr.Load(); hw != 0 {
		t.Fatalf("watermark %d after Reset", hw)
	}
}

// sanity-check helper used by the fuzz-ish property below.
func sumLive(m *Memory) int64 {
	var s int64
	m.mu.RLock()
	for _, b := range m.live {
		s += b.Size
	}
	m.mu.RUnlock()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, b := range sh.live {
			s += b.Size
		}
		sh.mu.Unlock()
	}
	return s
}

// TestShardAccountingMatchesIndexes cross-checks the atomic live-byte
// counter against the ground truth of both block indexes after mixed
// concurrent traffic: the quota is only as sound as this invariant.
func TestShardAccountingMatchesIndexes(t *testing.T) {
	m := New(4 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var mine []int64
			for i := 0; i < 500; i++ {
				size := int64(16 + (i*37+tid*11)%400)
				a, err := m.AllocOn(tid, size, 0, "")
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, a)
				if i%3 == 0 && len(mine) > 0 {
					idx := (i * 13) % len(mine)
					if err := m.Free(mine[idx]); err != nil {
						t.Error(err)
						return
					}
					mine = append(mine[:idx], mine[idx+1:]...)
				}
			}
			for _, a := range mine {
				if err := m.Free(a); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := m.Stats().Live, sumLive(m); got != want {
		t.Fatalf("atomic live counter %d, index ground truth %d", got, want)
	}
	if live := m.Stats().Live; live != 0 {
		t.Fatalf("%d live bytes after freeing everything", live)
	}
}
