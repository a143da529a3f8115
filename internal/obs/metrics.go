package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods
// are no-ops on a nil receiver, so a producer holding a counter from a
// disabled registry pays one branch per update and nothing else.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on nil.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins instrument with a tracked
// maximum. Like Counter, nil receivers are inert.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value, updating the running maximum.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last value set; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the largest value ever set; zero on nil.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// HistogramBuckets is the fixed bucket count of every Histogram:
// bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0
// counts v <= 0 together with v == 1 ... see bucketOf), so the largest
// bucket absorbs everything from 2^62 up. Power-of-two buckets keep
// the histogram allocation-free and bounded regardless of the
// observation range, which is all the op-count and byte-size
// distributions here need.
const HistogramBuckets = 64

// Histogram is a bounded power-of-two-bucket histogram with tracked
// count/sum/min/max. Observe is lock-free; nil receivers are inert.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	minInit atomic.Bool
}

func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 0
	for u := uint64(v - 1); u != 0; u >>= 1 {
		b++
	}
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// Observe records one observation. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if h.minInit.CompareAndSwap(false, true) {
		h.min.Store(v)
	} else {
		for {
			m := h.min.Load()
			if v >= m || h.min.CompareAndSwap(m, v) {
				break
			}
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of observations; zero on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations; zero on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (zero when empty or nil).
func (h *Histogram) Min() int64 {
	if h == nil || !h.minInit.Load() {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (zero when empty or nil).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Buckets returns the non-empty buckets as (upper-bound, count) pairs,
// where an upper bound of 2^i means the bucket counted observations in
// (2^(i-1), 2^i].
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	var out []BucketCount
	for i := 0; i < HistogramBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, BucketCount{Le: int64(1) << uint(i), Count: n})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket: Count observations
// were <= Le (and greater than the previous bucket's bound).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Registry is a named collection of instruments. Lookup interns the
// instrument on first use, so producers fetch instruments once and
// update them lock-free afterwards. All methods are safe on a nil
// Registry and return nil instruments, preserving the zero-cost
// disabled path end to end.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter interns and returns the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns and returns the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns and returns the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument's state, in a
// shape that marshals directly to JSON.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue    `json:"gauges,omitempty"`
	Histograms map[string]HistogramView `json:"histograms,omitempty"`
}

// GaugeValue is a snapshotted gauge: last value and running maximum.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramView is a snapshotted histogram.
type HistogramView struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the registry's current state. Safe on nil (returns
// an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]HistogramView{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = HistogramView{
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Buckets: h.Buckets(),
		}
	}
	return s
}

// Render writes a stable, human-readable text dump of the registry —
// one instrument per line, sorted by name — the format `gdsx pipeline
// -metrics` emits.
func (r *Registry) Render(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter %-40s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "gauge   %-40s %d (max %d)\n", name, g.Value, g.Max); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		mean := int64(0)
		if h.Count > 0 {
			mean = h.Sum / h.Count
		}
		if _, err := fmt.Fprintf(w, "hist    %-40s count=%d sum=%d min=%d mean=%d max=%d\n",
			name, h.Count, h.Sum, h.Min, mean, h.Max); err != nil {
			return err
		}
	}
	return nil
}
