// Package schedule computes the simulated parallel execution time of
// traced parallel loops. The interpreter executes a parallel loop once,
// sequentially, recording each iteration's op cost and ordered-section
// boundaries (interp.LoopTrace); this package replays that trace under
// the runtime's scheduling policies — static chunking for DOALL,
// dynamic chunk-1 with ordered sections for DOACROSS — for any thread
// count, on a machine model with a configurable memory-bandwidth bound.
//
// This substitutes for the paper's 8-core Opteron: speedups are
// deterministic functions of the program's real operation counts and
// dependence structure rather than of the host's core count, while the
// phenomena the paper reports (DOACROSS synchronization plateaus,
// bandwidth-bound loops, load imbalance) emerge from the same causes.
package schedule

import (
	"fmt"

	"gdsx/internal/ast"
	"gdsx/internal/interp"
	"gdsx/internal/obs"
)

// Policy selects the DOALL dispatch model. DOACROSS loops always use
// the ordered dynamic pipeline, as in the runtime.
type Policy int

const (
	// PolicyStatic models contiguous static chunks — the reference
	// scheduler, and the zero value so the paper-figure models are
	// unchanged.
	PolicyStatic Policy = iota
	// PolicyStealing mirrors the runtime's work-stealing scheduler
	// (interp/sched.go): the static initial partition with the first
	// grain pinned, owners consuming grain-sized pieces from the
	// front, and an idle thread stealing the upper half of a victim's
	// remainder — always the lowest range that still lies above the
	// thief's last executed iteration.
	PolicyStealing
)

// Model holds the cost constants of the simulated machine, in
// interpreter ops (one op ≈ one simple instruction).
type Model struct {
	// Policy is the DOALL dispatch model (default PolicyStatic).
	Policy Policy
	// SpawnPerRegion is the cost of forking/joining a parallel region
	// (the Gomp fork the paper's Figure 11 shows as 1-core slowdown).
	SpawnPerRegion int64
	// StaticDispatch is charged once per thread per DOALL region.
	StaticDispatch int64
	// DynamicDispatch is charged per iteration grab in DOACROSS loops.
	DynamicDispatch int64
	// DynamicChunk is the DOACROSS chunk size (iterations per grab).
	// The paper uses 1; larger chunks narrow the ordered-section
	// pipeline (see the chunk-sweep ablation). 0 means 1.
	DynamicChunk int
	// MemBandwidth is the aggregate memory-system throughput in cache
	// lines per op (the interpreter counts the lines that miss each
	// thread's modeled 64 KiB cache). Loops whose threads collectively
	// stream more than this stall on memory — the paper's 470.lbm
	// plateau. The default corresponds to a DDR2-era shared memory bus
	// relative to the interpreter's op granularity.
	MemBandwidth float64
	// SharedCacheBW is the aggregate shared-cache/bus throughput in
	// memory accesses per op. Even cache-resident loops saturate the
	// shared levels of the hierarchy as threads are added, which is
	// what keeps the paper's best speedups below the core count.
	SharedCacheBW float64
}

// DefaultModel returns cost constants resembling a small-scale CMP.
func DefaultModel() Model {
	return Model{
		SpawnPerRegion:  1200,
		StaticDispatch:  60,
		DynamicDispatch: 60,
		MemBandwidth:    0.006,
		SharedCacheBW:   2.0,
	}
}

// Breakdown is the simulated execution of one loop instance: the
// makespan and the aggregate thread-time split into useful work,
// scheduling/synchronization, and waiting (the paper's Figure 12
// do_wait / cpu_relax time).
type Breakdown struct {
	Time int64 // makespan in ops
	Busy int64 // aggregate useful ops across threads
	Sync int64 // aggregate scheduling + ordered-section signalling
	Wait int64 // aggregate idle/waiting ops across threads
}

// Add accumulates another breakdown (used to total a program's loops).
func (b *Breakdown) Add(o Breakdown) {
	b.Time += o.Time
	b.Busy += o.Busy
	b.Sync += o.Sync
	b.Wait += o.Wait
}

// Publish records the breakdown in a metrics registry under
// prefix+".time"/".busy"/".sync"/".wait" gauges, so simulated-schedule
// results surface through the same observability pipeline as runtime
// metrics. Safe on a nil registry.
func (b Breakdown) Publish(r *obs.Registry, prefix string) {
	r.Gauge(prefix + ".time").Set(b.Time)
	r.Gauge(prefix + ".busy").Set(b.Busy)
	r.Gauge(prefix + ".sync").Set(b.Sync)
	r.Gauge(prefix + ".wait").Set(b.Wait)
}

// Simulate replays one loop trace with n threads.
func Simulate(tr *interp.LoopTrace, n int, m Model) Breakdown {
	if n < 1 {
		n = 1
	}
	var b Breakdown
	switch tr.Kind {
	case ast.DOALL:
		if m.Policy == PolicyStealing {
			b = simulateStealing(tr, n, m)
		} else {
			b = simulateStatic(tr, n, m)
		}
	case ast.DOACROSS:
		b = simulateDynamic(tr, n, m)
	default:
		// Sequential trace: straight-line cost.
		b = Breakdown{Time: tr.Ops(), Busy: tr.Ops()}
	}
	// Bandwidth bounds: the loop cannot finish before the memory
	// system has served its DRAM traffic (cache misses) nor before the
	// shared cache/bus has served every access.
	var miss, all int64
	for _, c := range tr.Iters {
		miss += c.Mem
		all += c.MemAll
	}
	for _, bound := range []struct {
		traffic int64
		rate    float64
		toWait  bool
	}{
		// DRAM saturation idles whole cores — the paper observes it as
		// do_wait/cpu_relax time (470.lbm).
		{miss, m.MemBandwidth, true},
		// Shared-cache/bus contention stretches the instructions
		// themselves: it reads as longer work.
		{all, m.SharedCacheBW, false},
	} {
		if bound.rate <= 0 {
			continue
		}
		bw := int64(float64(bound.traffic) / bound.rate)
		if bw > b.Time {
			if bound.toWait {
				b.Wait += (bw - b.Time) * int64(n)
			} else {
				b.Busy += (bw - b.Time) * int64(n)
			}
			b.Time = bw
		}
	}
	return b
}

// simulateStatic models DOALL static chunking: thread t executes a
// contiguous chunk; the region ends when the slowest thread finishes.
func simulateStatic(tr *interp.LoopTrace, n int, m Model) Breakdown {
	k := int64(len(tr.Iters))
	chunk := k / int64(n)
	rem := k % int64(n)
	var maxT int64
	busyPer := make([]int64, n)
	for t := 0; t < n; t++ {
		lo := int64(t)*chunk + min(int64(t), rem)
		hi := lo + chunk
		if int64(t) < rem {
			hi++
		}
		var busy int64
		for i := lo; i < hi; i++ {
			busy += tr.Iters[i].Total()
		}
		busyPer[t] = busy
		tot := busy + m.StaticDispatch
		if tot > maxT {
			maxT = tot
		}
	}
	b := Breakdown{Time: maxT + m.SpawnPerRegion}
	for t := 0; t < n; t++ {
		b.Busy += busyPer[t]
		b.Sync += m.StaticDispatch
		b.Wait += maxT - m.StaticDispatch - busyPer[t] // barrier idle
	}
	b.Sync += m.SpawnPerRegion
	return b
}

// simulateStealing models the work-stealing DOALL scheduler as a
// discrete-event simulation: threads start on the static partition and
// the thread with the earliest clock acts next — consuming a grain
// from its own deque, or, when empty, stealing the upper half of the
// lowest eligible victim range above its floor (the same victim choice
// and monotonicity rule as interp's runStealing). Each steal is
// charged one StaticDispatch, so a run with zero steals costs exactly
// what simulateStatic charges.
func simulateStealing(tr *interp.LoopTrace, n int, m Model) Breakdown {
	k := int64(len(tr.Iters))
	type deque struct{ lo, hi, pin int64 }
	dq := make([]deque, n)
	chunk := k / int64(n)
	rem := k % int64(n)
	const stealGrainDiv = 8 // as interp/sched.go
	grain := max(1, chunk/stealGrainDiv)
	for t := int64(0); t < int64(n); t++ {
		lo := t*chunk + min(t, rem)
		hi := lo + chunk
		if t < rem {
			hi++
		}
		dq[t] = deque{lo: lo, hi: hi, pin: min(lo+grain, hi)}
	}
	free := make([]int64, n)  // each thread's clock
	busy := make([]int64, n)  // useful ops per thread
	sync := make([]int64, n)  // dispatch + steal ops per thread
	floor := make([]int64, n) // last executed iteration per thread
	retired := make([]bool, n)
	for t := 0; t < n; t++ {
		free[t] = m.StaticDispatch // one dispatch per worker, as static
		sync[t] = m.StaticDispatch
		floor[t] = -1
	}
	for {
		t := -1
		for j := 0; j < n; j++ {
			if !retired[j] && (t < 0 || free[j] < free[t]) {
				t = j
			}
		}
		if t < 0 {
			break
		}
		d := &dq[t]
		if d.lo >= d.hi {
			best, bestLo := -1, int64(0)
			for v := 0; v < n; v++ {
				if v == t {
					continue
				}
				avail := dq[v].hi - max(dq[v].lo, dq[v].pin)
				if avail <= 0 {
					continue
				}
				lo := dq[v].hi - (avail+1)/2
				if lo <= floor[t] {
					continue
				}
				if best < 0 || lo < bestLo {
					best, bestLo = v, lo
				}
			}
			if best < 0 {
				// All remaining work is claimed or below the floor:
				// this thread idles until the region drains.
				retired[t] = true
				continue
			}
			v := &dq[best]
			avail := v.hi - max(v.lo, v.pin)
			lo := v.hi - (avail+1)/2
			*d = deque{lo: lo, hi: v.hi, pin: lo}
			v.hi = lo
			free[t] += m.StaticDispatch
			sync[t] += m.StaticDispatch
			// Fall through: the thief executes its first grain as part
			// of the same action. (The runtime's thief also proceeds
			// straight from put to take; making the pair atomic here
			// guarantees every simulation step consumes an iteration,
			// so the event loop terminates.)
		}
		lo := d.lo
		hi := min(lo+grain, d.hi)
		d.lo = hi
		for i := lo; i < hi; i++ {
			c := tr.Iters[i].Total()
			free[t] += c
			busy[t] += c
			floor[t] = i
		}
	}
	var maxT int64
	for t := 0; t < n; t++ {
		if free[t] > maxT {
			maxT = free[t]
		}
	}
	b := Breakdown{Time: maxT + m.SpawnPerRegion}
	for t := 0; t < n; t++ {
		b.Busy += busy[t]
		b.Sync += sync[t]
		b.Wait += maxT - free[t] // idle until the slowest thread finishes
	}
	b.Sync += m.SpawnPerRegion
	return b
}

// simulateDynamic models DOACROSS dynamic self-scheduling with chunk
// size one and an ordered section: iteration i's ordered part cannot
// start before iteration i-1's ordered part finished.
func simulateDynamic(tr *interp.LoopTrace, n int, m Model) Breakdown {
	chunk := m.DynamicChunk
	if chunk < 1 {
		chunk = 1
	}
	free := make([]int64, n) // next time each thread is available
	busy := make([]int64, n) // useful ops per thread
	sync := make([]int64, n) // dispatch ops per thread
	wait := make([]int64, n) // ordered-section stall per thread
	var orderedFree int64    // release time of the previous ordered section
	for lo := 0; lo < len(tr.Iters); lo += chunk {
		hi := lo + chunk
		if hi > len(tr.Iters) {
			hi = len(tr.Iters)
		}
		// Dynamic scheduling hands the next chunk to the first thread
		// to reach the work queue.
		t := 0
		for j := 1; j < n; j++ {
			if free[j] < free[t] {
				t = j
			}
		}
		free[t] += m.DynamicDispatch
		sync[t] += m.DynamicDispatch
		for _, c := range tr.Iters[lo:hi] {
			waitStart := free[t] + c.Pre
			entry := waitStart
			if c.Ordered > 0 || c.Post > 0 {
				if orderedFree > entry {
					wait[t] += orderedFree - entry
					entry = orderedFree
				}
				exit := entry + c.Ordered
				orderedFree = exit
				free[t] = exit + c.Post
			} else {
				free[t] = waitStart
			}
			busy[t] += c.Total()
		}
	}
	var b Breakdown
	var maxT int64
	for t := 0; t < n; t++ {
		if free[t] > maxT {
			maxT = free[t]
		}
	}
	b.Time = maxT + m.SpawnPerRegion
	for t := 0; t < n; t++ {
		b.Busy += busy[t]
		b.Sync += sync[t]
		b.Wait += wait[t] + (maxT - free[t]) // final join idle
	}
	b.Sync += m.SpawnPerRegion
	return b
}

// ProgramTime computes the simulated execution time of a whole traced
// run with n threads: the sequential ops outside parallel loops plus
// each loop instance's simulated makespan. It also returns the
// aggregate loop breakdown (Figure 12) and the loop-only times.
func ProgramTime(res interp.Result, n int, m Model) (total int64, loops Breakdown, loopSeqOps int64, err error) {
	var traced int64
	for _, tr := range res.Traces {
		traced += tr.Ops()
		b := Simulate(tr, n, m)
		loops.Add(b)
		loopSeqOps += tr.Ops()
	}
	seq := res.Counters[interp.CatWork] - traced
	if seq < 0 {
		return 0, Breakdown{}, 0, fmt.Errorf("schedule: inconsistent trace: loop ops %d exceed total %d",
			traced, res.Counters[interp.CatWork])
	}
	return seq + loops.Time, loops, loopSeqOps, nil
}

// SequentialTime returns the simulated time of the same run executed
// entirely sequentially (the native baseline): simply its total op
// count.
func SequentialTime(res interp.Result) int64 {
	return res.Counters[interp.CatWork]
}
