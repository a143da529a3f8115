package guard

import (
	"runtime"
	"testing"

	"gdsx/internal/interp"
)

// guardRegion synthesizes a clean 2-thread region of 500,000 accesses
// in the shape of an expanded loop: each iteration writes 100 4-byte
// elements of its thread's copy of a bonded expanded array and reads
// them back, reads 40 elements of a lookup table on pages nothing
// writes, and writes 10 elements of a shared output array that no
// other iteration touches. It returns the array's note and the
// per-thread logs in execution order.
func guardRegion() (note, [][]interp.Access) {
	const (
		nt, iters   = 2, 2000
		span        = 4096
		arr, table  = 0x100000, 0x200000
		out         = 0x300000
		tableLen    = 4 * 4096 / 4
		privateOps  = 100
		tableReads  = 40
		outputElems = 10
	)
	logs := make([][]interp.Access, nt)
	for it := int64(0); it < iters; it++ {
		tid := int(it * nt / iters)
		ev := interp.Access{Tid: tid, Iter: it, Size: 4}
		own := int64(arr + tid*span)
		for k := int64(0); k < privateOps; k++ {
			ev.Site, ev.Addr, ev.Store = 1, own+((it*37+k)%(span/4))*4, true
			logs[tid] = append(logs[tid], ev)
		}
		for k := int64(0); k < privateOps; k++ {
			ev.Site, ev.Addr, ev.Store = 2, own+((it*37+k)%(span/4))*4, false
			logs[tid] = append(logs[tid], ev)
		}
		for k := int64(0); k < tableReads; k++ {
			ev.Site, ev.Addr, ev.Store = 3, table+((it*7+k*13)%tableLen)*4, false
			logs[tid] = append(logs[tid], ev)
		}
		for k := int64(0); k < outputElems; k++ {
			ev.Site, ev.Addr, ev.Store = 4, out+(it*outputElems+k)*4, true
			logs[tid] = append(logs[tid], ev)
		}
	}
	return note{base: arr, span: span}, logs
}

// BenchmarkGuardRegion logs and replays one synthesized region per op
// through a fresh monitor, as a guarded run does, and reports the time
// and the heap bytes per logged access.
func BenchmarkGuardRegion(b *testing.B) {
	n, logs := guardRegion()
	events := 0
	for _, l := range logs {
		events += len(l)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(Config{Threads: len(logs)})
		h := m.Hooks()
		h.Expand(n.base, n.span, n.esz)
		h.ParallelStart(1, len(logs))
		for _, l := range logs {
			for _, ev := range l {
				h.Observe(ev)
			}
		}
		h.ParallelEnd(1) // a violation would panic
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	logged := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/logged, "ns/access")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/logged, "B/access")
}
