package obs

import (
	"fmt"
	"slices"
	"sort"
)

// Metrics is a registry of named counters, gauges and histograms.  Like
// the tracer, a nil *Metrics (and the nil instruments it hands out) is
// a valid no-op registry, so instrumented code needs no conditionals.
// Lookups allocate on first use of a name; hot paths hold the returned
// instrument instead of re-resolving it per event.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins value.
type Gauge struct {
	v   float64
	set bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v, g.set = v, true
	}
}

// Value returns the last set value and whether one was ever set.
func (g *Gauge) Value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	return g.v, g.set
}

// Histogram accumulates a distribution over fixed bucket boundaries:
// counts[i] counts observations <= bounds[i], with one overflow bucket
// at the end.
type Histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// DefBytesBuckets is the default boundary set for payload-size
// histograms: powers of four from 64 B to 16 MiB.
var DefBytesBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns the boundary slice and per-bucket counts (the last
// count is the overflow bucket).  Both are the histogram's own
// storage; callers must not modify them.
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	return h.bounds, h.counts
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	if m.counters == nil {
		m.counters = make(map[string]*Counter)
	}
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	if m.gauges == nil {
		m.gauges = make(map[string]*Gauge)
	}
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket boundaries on first use (later calls ignore bounds).
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	if m.hists == nil {
		m.hists = make(map[string]*Histogram)
	}
	h := m.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		m.hists[name] = h
	}
	return h
}

// Merge adds src's instruments to m: counters and histogram samples
// add up, and a gauge src has set overwrites m's.  A histogram must
// have the same bucket boundaries in both registries.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		m.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		if g.set {
			m.Gauge(name).Set(g.v)
		}
	}
	for name, h := range src.hists {
		d := m.Histogram(name, h.bounds)
		if !slices.Equal(d.bounds, h.bounds) {
			panic(fmt.Sprintf("obs: histogram %q merged across different buckets", name))
		}
		d.sum += h.sum
		d.n += h.n
		for i, c := range h.counts {
			d.counts[i] += c
		}
	}
}

// CounterNames returns the registered counter names, sorted.
func (m *Metrics) CounterNames() []string {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the registered gauge names, sorted.
func (m *Metrics) GaugeNames() []string {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.gauges))
	for name := range m.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the registered histogram names, sorted.
func (m *Metrics) HistogramNames() []string {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.hists))
	for name := range m.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
