package interp

import (
	"fmt"
	"reflect"
	"testing"
)

// layerHooks builds a hook set whose every callback appends
// "<name>:<event>" to log, so chained invocation order is observable.
func layerHooks(name string, log *[]string) *Hooks {
	note := func(event string) { *log = append(*log, name+":"+event) }
	return &Hooks{
		Load:      func(site int, addr, size int64) { note("load") },
		Store:     func(site int, addr, size int64) { note("store") },
		LoopEnter: func(loopID int) { note("loop-enter") },
		LoopIter:  func(loopID int, iter int64) { note("loop-iter") },
		LoopExit:  func(loopID int) { note("loop-exit") },
		Redirect: func(site int, addr, size int64, tid int) (int64, int64) {
			note("redirect")
			return addr + 1, 1 // shift so composition is observable
		},
		Free:           func(base int64) { note("free") },
		ParallelStart:  func(loopID, nthreads int) { note("parallel-start") },
		ParallelEnd:    func(loopID int) { note("parallel-end") },
		IterStart:      func(loopID int, iter int64, tid int) { note("iter-start") },
		IterEnd:        func(loopID int, iter int64, tid int) { note("iter-end") },
		ParallelCancel: func(loopID int) { note("parallel-cancel") },
		Observe:        func(ev Access) { note("observe") },
		Expand:         func(base, span, esz int64) { note("expand") },
	}
}

// fireAll invokes every callback of a chained hook set once.
func fireAll(t *testing.T, h *Hooks) {
	t.Helper()
	h.Load(1, 100, 8)
	h.Store(1, 100, 8)
	h.LoopEnter(1)
	h.LoopIter(1, 0)
	h.LoopExit(1)
	h.Redirect(1, 100, 8, 0)
	h.Free(100)
	h.ParallelStart(1, 4)
	h.ParallelEnd(1)
	h.IterStart(1, 0, 0)
	h.IterEnd(1, 0, 0)
	h.ParallelCancel(1)
	h.Observe(Access{Site: 1, Addr: 100, Size: 8})
	h.Expand(100, 64, 8)
}

// TestChainHooksOrder pins the documented contract for three or more
// chained layers: every event reaches the layers left to right, under
// either associativity, for every hook kind.
func TestChainHooksOrder(t *testing.T) {
	events := []string{
		"load", "store", "loop-enter", "loop-iter", "loop-exit",
		"redirect", "free", "parallel-start", "parallel-end",
		"iter-start", "iter-end", "parallel-cancel", "observe", "expand",
	}
	for _, nesting := range []string{"right", "left"} {
		t.Run(nesting, func(t *testing.T) {
			var log []string
			a := layerHooks("a", &log)
			b := layerHooks("b", &log)
			c := layerHooks("c", &log)
			var chained *Hooks
			if nesting == "right" {
				// The stack GuardedRun + Machine.New builds:
				// ChainHooks(obs, ChainHooks(monitor, user)).
				chained = ChainHooks(a, ChainHooks(b, c))
			} else {
				chained = ChainHooks(ChainHooks(a, b), c)
			}
			fireAll(t, chained)
			var want []string
			for _, ev := range events {
				want = append(want, "a:"+ev, "b:"+ev, "c:"+ev)
			}
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("chained hook order (%s nesting):\ngot  %v\nwant %v",
					nesting, log, want)
			}
		})
	}
}

// TestChainHooksRedirectComposes pins Redirect's value threading: each
// layer observes the address the previous one produced, and the
// simulated costs add.
func TestChainHooksRedirectComposes(t *testing.T) {
	var seen []int64
	layer := func(shift int64) *Hooks {
		return &Hooks{Redirect: func(site int, addr, size int64, tid int) (int64, int64) {
			seen = append(seen, addr)
			return addr + shift, shift
		}}
	}
	h := ChainHooks(layer(1), ChainHooks(layer(10), layer(100)))
	addr, cost := h.Redirect(0, 1000, 8, 0)
	if addr != 1111 || cost != 111 {
		t.Fatalf("composed redirect = (%d, %d), want (1111, 111)", addr, cost)
	}
	if !reflect.DeepEqual(seen, []int64{1000, 1001, 1011}) {
		t.Fatalf("each layer must see its predecessor's address: %v", seen)
	}
}

// TestChainHooksNilLayers: chaining with nil layers returns the other
// side unchanged, and partially populated layers only chain the
// callbacks that exist.
func TestChainHooksNilLayers(t *testing.T) {
	var log []string
	a := layerHooks("a", &log)
	if got := ChainHooks(a, nil); got != a {
		t.Fatal("ChainHooks(a, nil) must return a")
	}
	if got := ChainHooks(nil, a); got != a {
		t.Fatal("ChainHooks(nil, a) must return a")
	}
	partial := &Hooks{Free: func(base int64) { log = append(log, "p:free") }}
	h := ChainHooks(a, partial)
	if h.Observe == nil || h.Load == nil {
		t.Fatal("chaining must preserve a's callbacks")
	}
	h.Free(1)
	if fmt.Sprint(log) != "[a:free p:free]" {
		t.Fatalf("partial chain order: %v", log)
	}
}

// TestHasAccessHooks pins the fast-path predicate the engine keys its
// load/store compilation on.
func TestHasAccessHooks(t *testing.T) {
	var h *Hooks
	if h.HasAccessHooks() {
		t.Fatal("nil hooks have no access hooks")
	}
	regionOnly := &Hooks{
		ParallelStart: func(loopID, nthreads int) {},
		ParallelEnd:   func(loopID int) {},
		IterStart:     func(loopID int, iter int64, tid int) {},
		IterEnd:       func(loopID int, iter int64, tid int) {},
		LoopEnter:     func(loopID int) {},
		Free:          func(base int64) {},
		Expand:        func(base, span, esz int64) {},
	}
	if regionOnly.HasAccessHooks() {
		t.Fatal("region-level hooks must stay off the access slow path")
	}
	for name, h := range map[string]*Hooks{
		"load":     {Load: func(site int, addr, size int64) {}},
		"store":    {Store: func(site int, addr, size int64) {}},
		"redirect": {Redirect: func(site int, addr, size int64, tid int) (int64, int64) { return addr, 0 }},
		"observe":  {Observe: func(ev Access) {}},
	} {
		if !h.HasAccessHooks() {
			t.Fatalf("%s is a per-access hook", name)
		}
	}
}
