package rtpriv

import (
	"sync"
	"testing"

	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// machineFor builds a machine over a trivial program so the monitor has
// a real simulated memory to manage.
func machineFor(t *testing.T) *interp.Machine {
	t.Helper()
	prog, err := parser.Parse("t.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return interp.New(prog, info, interp.Options{})
}

func TestRedirectInactiveOutsideRegion(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	addr, cost := rt.Hooks().Redirect(5, 1234, 4, 0)
	if addr != 1234 || cost != 0 {
		t.Fatalf("monitor active outside parallel region: %d %d", addr, cost)
	}
}

func TestRedirectCopiesAndCharges(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	base, err := m.Mem().Alloc(64, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Mem().Store(base+8, 8, 0xabcdef)

	h := rt.Hooks()
	h.ParallelStart(1, 2)
	defer h.ParallelEnd(1)

	// Non-private site: untouched.
	if a, c := h.Redirect(9, base+8, 8, 0); a != base+8 || c != 0 {
		t.Fatalf("non-private site redirected: %d %d", a, c)
	}

	// Private site, first touch: copy created and charged.
	a0, c0 := h.Redirect(5, base+8, 8, 0)
	if a0 == base+8 {
		t.Fatalf("not redirected")
	}
	if c0 <= DefaultModel().AccessBase {
		t.Fatalf("first touch must charge copy-in: %d", c0)
	}
	// The copy carries the shared content (copy-in).
	if v := m.Mem().Load(a0, 8); v != 0xabcdef {
		t.Fatalf("copy-in lost data: %x", v)
	}

	// Second touch: same copy, no copy-in charge.
	a1, c1 := h.Redirect(5, base+16, 4, 0)
	if a1 != a0+8 {
		t.Fatalf("interior offset wrong: %d vs %d", a1, a0+8)
	}
	if c1 >= c0 {
		t.Fatalf("second touch should be cheaper: %d vs %d", c1, c0)
	}

	// A different thread gets its own copy.
	a2, _ := h.Redirect(5, base+8, 8, 1)
	if a2 == a0 {
		t.Fatalf("threads share a private copy")
	}

	st := rt.Stats()
	if st.Copies != 2 || st.Monitored != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidateOnFree(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	base, _ := m.Mem().Alloc(32, 1, "")
	h := rt.Hooks()
	h.ParallelStart(1, 1)
	defer h.ParallelEnd(1)

	a0, _ := h.Redirect(5, base, 4, 0)
	m.Mem().Store(a0, 4, 77)
	h.Free(base)
	_ = m.Mem().Free(base)

	// Reallocate (likely the same base) and touch again: a fresh copy,
	// not the stale one.
	base2, _ := m.Mem().Alloc(32, 1, "")
	a1, _ := h.Redirect(5, base2, 4, 0)
	if v := m.Mem().Load(a1, 4); v != 0 {
		t.Fatalf("stale private copy survived free: %d", v)
	}
}

// TestRedirectConcurrentWithFree: one worker's first touches insert
// into its copy map while a sibling frees the same shared blocks, and
// invalidate walks every thread's map. The maps must only be touched
// under the monitor's lock (run under -race).
func TestRedirectConcurrentWithFree(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	const blocks = 256
	bases := make([]int64, blocks)
	for i := range bases {
		b, err := m.Mem().Alloc(64, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = b
	}
	h := rt.Hooks()
	h.ParallelStart(1, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, b := range bases {
			h.Redirect(5, b, 8, 0)
		}
	}()
	go func() {
		defer wg.Done()
		for _, b := range bases {
			h.Free(b)
		}
	}()
	wg.Wait()
	h.ParallelEnd(1)
	if st := rt.Stats(); st.Monitored != blocks || st.Copies != blocks {
		t.Fatalf("stats = %+v, want %d monitored accesses and copies", st, blocks)
	}
}

func TestEndFreesCopies(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	base, _ := m.Mem().Alloc(128, 1, "")
	h := rt.Hooks()
	h.ParallelStart(1, 4)
	for tid := 0; tid < 4; tid++ {
		h.Redirect(5, base, 8, tid)
	}
	before := m.Mem().Stats().Blocks
	h.ParallelEnd(1)
	after := m.Mem().Stats().Blocks
	if after >= before {
		t.Fatalf("copies not freed at region end: %d -> %d", before, after)
	}
}

func TestUnknownAddressPassesThrough(t *testing.T) {
	rt := New([]int{5}, DefaultModel())
	m := machineFor(t)
	rt.Bind(m)
	h := rt.Hooks()
	h.ParallelStart(1, 1)
	defer h.ParallelEnd(1)
	// An address outside any live block (e.g. a wild pointer) is left
	// alone but still charged for the failed lookup.
	a, c := h.Redirect(5, 7, 4, 0)
	if a != 7 || c == 0 {
		t.Fatalf("wild address handling: %d %d", a, c)
	}
}
