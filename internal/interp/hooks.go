package interp

// ChainHooks composes two hook sets into one: for every event, a's
// hook runs first, then b's. Either argument may be nil, in which case
// the other is returned unchanged. Redirect composes — b observes (and
// may further redirect) the address a produced, and the simulated op
// costs add. GuardedRun uses this to run the guard monitor's hooks
// ahead of caller-supplied ones.
//
// Chaining three or more layers: ChainHooks is associative, so
// ChainHooks(a, ChainHooks(b, c)) and ChainHooks(ChainHooks(a, b), c)
// both invoke every hook in the order a, b, c — left argument first,
// all the way down. The full stack of a guarded, observed run with
// user hooks is ChainHooks(obs, ChainHooks(monitor, user)): the
// observability adapter runs first (Machine.New prepends it), then the
// guard monitor (GuardedRun prepends it to the caller's hooks), then
// the user's. Layers that must see an event before a later layer can
// abort the region rely on this order — see the caveat below.
//
// Caveat: an aborted region may cut the chain short. When a layer's
// ParallelEnd panics (the guard monitor raising a violation at the
// safe point), every later layer's ParallelEnd never runs for that
// region. This is why the observability adapter is chained ahead of
// the monitor: its region-end event is recorded before a violation
// panic unwinds.
// HasAccessHooks reports whether the set carries a per-access hook —
// Redirect, Load, Store or Observe — i.e. whether attaching it forces
// every sited memory access through the engine's slow path. Hook sets
// with only region- and loop-level interest (the observability
// adapter's standard tier) leave loads and stores on the fast path.
// Safe on nil.
func (h *Hooks) HasAccessHooks() bool {
	return h != nil &&
		(h.Redirect != nil || h.Load != nil || h.Store != nil || h.Observe != nil)
}

// regionOnly reports whether every per-access hook in the set declared
// region-only interest (vacuously true for a set carrying none).
func (h *Hooks) regionOnly() bool {
	return !h.HasAccessHooks() || h.RegionOnly
}

// privateStacks reports whether the set's Observe hook (if any) waived
// own-stack accesses.
func (h *Hooks) privateStacks() bool {
	return h == nil || h.Observe == nil || h.PrivateStacks
}

func ChainHooks(a, b *Hooks) *Hooks {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	// The chain's access-path concessions hold only when every layer
	// that uses the relevant hook made them.
	c := &Hooks{
		RegionOnly:    a.regionOnly() && b.regionOnly(),
		PrivateStacks: a.privateStacks() && b.privateStacks(),
		Guarded:       a.Guarded || b.Guarded,
	}
	if a.Load != nil || b.Load != nil {
		af, bf := a.Load, b.Load
		c.Load = func(site int, addr, size int64) {
			if af != nil {
				af(site, addr, size)
			}
			if bf != nil {
				bf(site, addr, size)
			}
		}
	}
	if a.Store != nil || b.Store != nil {
		af, bf := a.Store, b.Store
		c.Store = func(site int, addr, size int64) {
			if af != nil {
				af(site, addr, size)
			}
			if bf != nil {
				bf(site, addr, size)
			}
		}
	}
	if a.LoopEnter != nil || b.LoopEnter != nil {
		af, bf := a.LoopEnter, b.LoopEnter
		c.LoopEnter = func(loopID int) {
			if af != nil {
				af(loopID)
			}
			if bf != nil {
				bf(loopID)
			}
		}
	}
	if a.LoopIter != nil || b.LoopIter != nil {
		af, bf := a.LoopIter, b.LoopIter
		c.LoopIter = func(loopID int, iter int64) {
			if af != nil {
				af(loopID, iter)
			}
			if bf != nil {
				bf(loopID, iter)
			}
		}
	}
	if a.LoopExit != nil || b.LoopExit != nil {
		af, bf := a.LoopExit, b.LoopExit
		c.LoopExit = func(loopID int) {
			if af != nil {
				af(loopID)
			}
			if bf != nil {
				bf(loopID)
			}
		}
	}
	if a.Redirect != nil || b.Redirect != nil {
		af, bf := a.Redirect, b.Redirect
		c.Redirect = func(site int, addr, size int64, tid int) (int64, int64) {
			var cost int64
			if af != nil {
				var c1 int64
				addr, c1 = af(site, addr, size, tid)
				cost += c1
			}
			if bf != nil {
				var c2 int64
				addr, c2 = bf(site, addr, size, tid)
				cost += c2
			}
			return addr, cost
		}
	}
	if a.Free != nil || b.Free != nil {
		af, bf := a.Free, b.Free
		c.Free = func(base int64) {
			if af != nil {
				af(base)
			}
			if bf != nil {
				bf(base)
			}
		}
	}
	if a.ParallelStart != nil || b.ParallelStart != nil {
		af, bf := a.ParallelStart, b.ParallelStart
		c.ParallelStart = func(loopID, nthreads int) {
			if af != nil {
				af(loopID, nthreads)
			}
			if bf != nil {
				bf(loopID, nthreads)
			}
		}
	}
	if a.ParallelEnd != nil || b.ParallelEnd != nil {
		af, bf := a.ParallelEnd, b.ParallelEnd
		c.ParallelEnd = func(loopID int) {
			if af != nil {
				af(loopID)
			}
			if bf != nil {
				bf(loopID)
			}
		}
	}
	if a.IterStart != nil || b.IterStart != nil {
		af, bf := a.IterStart, b.IterStart
		c.IterStart = func(loopID int, iter int64, tid int) {
			if af != nil {
				af(loopID, iter, tid)
			}
			if bf != nil {
				bf(loopID, iter, tid)
			}
		}
	}
	if a.IterEnd != nil || b.IterEnd != nil {
		af, bf := a.IterEnd, b.IterEnd
		c.IterEnd = func(loopID int, iter int64, tid int) {
			if af != nil {
				af(loopID, iter, tid)
			}
			if bf != nil {
				bf(loopID, iter, tid)
			}
		}
	}
	if a.ParallelCancel != nil || b.ParallelCancel != nil {
		af, bf := a.ParallelCancel, b.ParallelCancel
		c.ParallelCancel = func(loopID int) {
			if af != nil {
				af(loopID)
			}
			if bf != nil {
				bf(loopID)
			}
		}
	}
	if a.Observe != nil || b.Observe != nil {
		af, bf := a.Observe, b.Observe
		c.Observe = func(ev Access) {
			if af != nil {
				af(ev)
			}
			if bf != nil {
				bf(ev)
			}
		}
	}
	if a.Expand != nil || b.Expand != nil {
		af, bf := a.Expand, b.Expand
		c.Expand = func(base, span, esz int64) {
			if af != nil {
				af(base, span, esz)
			}
			if bf != nil {
				bf(base, span, esz)
			}
		}
	}
	if a.Commute != nil || b.Commute != nil {
		af, bf := a.Commute, b.Commute
		c.Commute = func(base, span, esz, op int64) {
			if af != nil {
				af(base, span, esz, op)
			}
			if bf != nil {
				bf(base, span, esz, op)
			}
		}
	}
	return c
}
