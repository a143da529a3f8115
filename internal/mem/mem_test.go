package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocFreeBasic(t *testing.T) {
	m := New(1 << 16)
	a, err := m.Alloc(100, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if a < NullGuard {
		t.Fatalf("allocation inside null guard: %d", a)
	}
	if a%8 != 0 {
		t.Fatalf("unaligned allocation: %d", a)
	}
	b, err := m.Alloc(50, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if b < a+100 {
		t.Fatalf("overlapping allocations: %d after %d+100", b, a)
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free not detected")
	}
	if err := m.Free(0); err != nil {
		t.Fatal("free(NULL) must be a no-op")
	}
	if err := m.Free(b); err != nil {
		t.Fatal(err)
	}
}

func TestAllocZeroes(t *testing.T) {
	m := New(1 << 12)
	a, _ := m.Alloc(64, 0, "")
	m.Store(a, 8, 0xdeadbeef)
	_ = m.Free(a)
	b, _ := m.Alloc(64, 0, "")
	if b != a {
		t.Fatalf("expected first-fit reuse, got %d vs %d", b, a)
	}
	if v := m.Load(b, 8); v != 0 {
		t.Fatalf("reused block not zeroed: %x", v)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	m := New(1 << 12)
	a, _ := m.Alloc(16, 0, "")
	m.Store(a, 8, 0x1122334455667788)
	if v := m.Load(a, 1); v != 0x88 {
		t.Fatalf("byte = %x", v)
	}
	if v := m.Load(a, 2); v != 0x7788 {
		t.Fatalf("short = %x", v)
	}
	if v := m.Load(a, 4); v != 0x55667788 {
		t.Fatalf("int = %x", v)
	}
	m.Store(a+2, 2, 0xaaaa)
	if v := m.Load(a, 8); v != 0x11223344aaaa7788 {
		t.Fatalf("mixed = %x", v)
	}
}

func TestBlockLookupInterior(t *testing.T) {
	m := New(1 << 14)
	a, _ := m.Alloc(256, 7, "")
	blk, ok := m.Block(a + 100)
	if !ok || blk.Base != a || blk.Site != 7 {
		t.Fatalf("interior lookup failed: %+v ok=%v", blk, ok)
	}
	if _, ok := m.Block(a + 256); ok {
		t.Fatalf("one-past-end lookup must fail")
	}
	_ = m.Free(a)
	if _, ok := m.Block(a + 100); ok {
		t.Fatalf("lookup into freed block must fail")
	}
}

// TestGenTracksLiveBlocks checks that every change to the live-block
// index advances Gen — sequential and arena allocation, realloc, free,
// rollback and Reset — and that reads, writes and lookups do not.
func TestGenTracksLiveBlocks(t *testing.T) {
	m := New(1 << 20)
	gen := m.Gen()
	changes := func(what string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if g := m.Gen(); g == gen {
			t.Errorf("%s left Gen at %d", what, g)
		} else {
			gen = g
		}
	}
	var a, b int64
	changes("alloc", func() (err error) { a, err = m.Alloc(16, 1, ""); return })
	changes("arena alloc", func() (err error) { b, err = m.AllocOn(0, 16, 2, ""); return })
	m.Store8(a, 7)
	_ = m.Load8(a)
	m.Memcpy(b, a, 8)
	if _, ok := m.Block(a + 4); !ok || m.Gen() != gen {
		t.Errorf("accesses and lookups moved Gen from %d to %d", gen, m.Gen())
	}
	changes("realloc", func() (err error) { a, err = m.Realloc(a, 64, 3); return })
	changes("free", func() error { return m.Free(a) })
	changes("arena free", func() error { return m.Free(b) })
	s := m.BeginSnapshot()
	changes("alloc in snapshot", func() (err error) { _, err = m.Alloc(32, 4, ""); return })
	changes("rollback", func() error { m.Rollback(s); return nil })
	changes("reset", func() error { m.Reset(); return nil })
}

func TestRealloc(t *testing.T) {
	m := New(1 << 14)
	a, _ := m.Alloc(32, 3, "")
	for i := int64(0); i < 32; i++ {
		m.Bytes(a, 32)[i] = byte(i)
	}
	b, err := m.Realloc(a, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if m.Bytes(b, 64)[i] != byte(i) {
			t.Fatalf("content lost at %d", i)
		}
	}
	c, err := m.Realloc(0, 16, 4)
	if err != nil || c == 0 {
		t.Fatalf("realloc(NULL) = %d, %v", c, err)
	}
}

func TestHighWaterAndDataStats(t *testing.T) {
	m := New(1 << 16)
	a, _ := m.Alloc(1000, 0, "")
	s, _ := m.Alloc(2000, 0, "stack")
	st := m.Stats()
	if st.HighWater < 3000 {
		t.Fatalf("high water %d", st.HighWater)
	}
	if st.HighWaterData >= 3000 || st.HighWaterData < 1000 {
		t.Fatalf("data high water %d should exclude the stack", st.HighWaterData)
	}
	_ = m.Free(a)
	_ = m.Free(s)
	if m.Stats().HighWater < 3000 {
		t.Fatalf("high water must not decrease")
	}
	m.ResetHighWater()
	if m.Stats().HighWater != 0 {
		t.Fatalf("reset high water = %d", m.Stats().HighWater)
	}
}

func TestOutOfMemory(t *testing.T) {
	m := New(4096)
	if _, err := m.Alloc(1<<20, 0, ""); err == nil {
		t.Fatal("expected out-of-memory")
	}
}

func TestCoalescing(t *testing.T) {
	m := New(1 << 12)
	a, _ := m.Alloc(512, 0, "")
	b, _ := m.Alloc(512, 0, "")
	c, _ := m.Alloc(512, 0, "")
	_ = m.Free(a)
	_ = m.Free(c)
	_ = m.Free(b) // middle free must coalesce all three
	d, err := m.Alloc(1536, 0, "")
	if err != nil {
		t.Fatalf("coalesced allocation failed: %v", err)
	}
	if d != a {
		t.Fatalf("coalesced block should start at %d, got %d", a, d)
	}
}

// TestNextFitCursor checks that the default policy resumes scanning
// past a fragmented prefix instead of rescanning it, and that FirstFit
// still packs from the bottom.
func TestNextFitCursor(t *testing.T) {
	build := func(policy ScanPolicy) (*Memory, []int64) {
		m := New(1 << 16)
		m.SetScanPolicy(policy)
		var keep []int64
		for i := 0; i < 8; i++ {
			h, _ := m.Alloc(16, 0, "")
			k, _ := m.Alloc(16, 0, "")
			keep = append(keep, k)
			_ = m.Free(h)
		}
		return m, keep
	}

	m, keep := build(NextFit)
	a, err := m.Alloc(16, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a <= keep[len(keep)-1] {
		t.Fatalf("next-fit allocation at %d rescanned the fragmented prefix (last live %d)",
			a, keep[len(keep)-1])
	}
	// After freeing the holes the allocator must still find them once
	// the cursor wraps: exhaust the tail, then allocate again.
	if _, err := m.Alloc(m.Cap(), 0, ""); err == nil {
		t.Fatal("expected out-of-memory for over-capacity request")
	}

	m2, keep2 := build(FirstFit)
	b, err := m2.Alloc(16, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if b >= keep2[0] {
		t.Fatalf("first-fit allocation at %d should reuse the first hole (before %d)", b, keep2[0])
	}
}

// TestNextFitWraps checks that a next-fit scan that starts past the
// only suitable hole wraps around and finds it.
func TestNextFitWraps(t *testing.T) {
	m := New(1 << 12)
	m.SetScanPolicy(NextFit)
	a, _ := m.Alloc(1024, 0, "")
	rest, _ := m.Alloc(1<<12-NullGuard-1024-256, 0, "") // leave a small tail
	_ = m.Free(a)                                       // hole at the bottom, cursor far past it
	b, err := m.Alloc(512, 0, "")
	if err != nil {
		t.Fatalf("wrap-around allocation failed: %v", err)
	}
	if b != a {
		t.Fatalf("expected wrap to hole at %d, got %d", a, b)
	}
	_ = m.Free(rest)
}

// Property: live blocks never overlap, interior lookups always resolve
// to the right block, and freeing everything returns the allocator to
// one maximal free extent.
func TestAllocatorProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(1 << 16)
		type blk struct{ base, size int64 }
		var live []blk
		for step := 0; step < 120; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				size := int64(1 + rng.Intn(300))
				a, err := m.Alloc(size, 1, "")
				if err != nil {
					continue
				}
				// No overlap with existing blocks.
				for _, b := range live {
					if a < b.base+b.size && b.base < a+size {
						return false
					}
				}
				live = append(live, blk{a, size})
			} else {
				i := rng.Intn(len(live))
				if err := m.Free(live[i].base); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			// Spot-check interior lookup.
			if len(live) > 0 {
				b := live[rng.Intn(len(live))]
				got, ok := m.Block(b.base + rng.Int63n(b.size))
				if !ok || got.Base != b.base {
					return false
				}
			}
		}
		for _, b := range live {
			if err := m.Free(b.base); err != nil {
				return false
			}
		}
		// Everything freed: a maximal allocation must succeed again.
		if _, err := m.Alloc(1<<16-NullGuard, 0, ""); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
