// Package obs is the runtime observability layer: a structured event
// tracer with a Chrome trace-event (Perfetto-loadable) exporter, a
// metrics registry of counters, gauges and bounded histograms, and a
// hot-site profiler that attributes memory-system cost to MiniC source
// positions per expanded copy.
//
// The package is deliberately a leaf: it imports only the standard
// library, so every layer of the stack — the interpreter (through the
// shared hook layer), the guard monitor, the region-recovery
// controller and the simulated allocator — can feed it without import
// cycles. All producers share one discipline: a nil
// *Observer (or a nil component inside one) short-circuits at the
// first branch, so a run without observability pays nothing beyond a
// pointer test.
//
// The three components are independent and independently priced:
//
//   - Trace and Metrics observe region-, iteration- and allocation-
//     granularity happenings, so the engine keeps register promotion
//     with them attached: cheap enough to leave on (gdsxbench -suite
//     obs measures the overhead; BENCH_obs.json records it).
//   - Hot enables the per-access profile. It rides the interpreter's
//     Observe hook, which switches every sited memory access onto the
//     slow hook path and turns register promotion off — the same price
//     the guard monitor pays — so it is a separate opt-in (gdsx
//     pipeline -hotspots).
package obs

// Observer bundles the observability components one run feeds. Any
// field may be nil to disable that component; a nil *Observer disables
// everything.
type Observer struct {
	// Trace receives structured events (region enter/exit, per-thread
	// iteration spans, guard verdicts, checkpoint/rollback/demotion,
	// expansions).
	Trace *Tracer
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Hot, when set, enables the per-access hot-site profiler. This is
	// the expensive component: it forces every sited memory access
	// through the interpreter's Observe hook.
	Hot *HotSites
	// IterSpans emits one trace span per parallel-loop iteration per
	// thread (name "iter"). Spans are buffered per worker and flushed
	// at the region's end, so the only per-iteration costs are two
	// clock reads and a slice append.
	IterSpans bool
}

// Emit appends ev to the trace, stamping the current trace clock when
// the event carries no timestamp. Safe on a nil Observer or one
// without a Tracer.
func (o *Observer) Emit(ev Event) {
	if o == nil || o.Trace == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = o.Trace.Now()
	}
	o.Trace.Emit(ev)
}

// Counter returns the named counter, or a nil no-op counter when the
// observer carries no registry. Safe on a nil Observer.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or a nil no-op gauge. Safe on a nil
// Observer.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, or a nil no-op histogram.
// Safe on a nil Observer.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}
