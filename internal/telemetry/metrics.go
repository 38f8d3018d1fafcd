package telemetry

import (
	"math/bits"
	"sort"
)

// Registry holds named counters, gauges, and histograms. Lookups are
// map-backed for speed; snapshots sort by name so serialized output is
// deterministic.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a last-value-wins sample.
type Gauge struct{ v int64 }

// Set records the gauge value.
func (g *Gauge) Set(v int64) { g.v = v }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// subBits sets histogram resolution: 2^subBits linear sub-buckets per
// power-of-two octave, i.e. worst-case relative error 1/2^subBits ≈ 6%.
const subBits = 4

// Histogram is a log-linear histogram of non-negative int64 samples
// (virtual-time durations in nanoseconds, queue depths, …): values below
// 2^subBits are counted exactly; above, each power-of-two octave is
// split into 2^subBits linear sub-buckets — the HdrHistogram layout,
// sized at one int64 per touched bucket.
type Histogram struct {
	buckets []int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// bucketIndex maps a sample to its bucket. Monotone in v.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ subBits
	sub := int((v >> uint(e-subBits)) & (1<<subBits - 1))
	return (e-subBits+1)<<subBits + sub
}

// bucketLow returns the smallest sample value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	o := i >> subBits // octave number ≥ 1
	sub := int64(i & (1<<subBits - 1))
	return int64(1)<<uint(subBits+o-1) + sub<<uint(o-1)
}

// Record adds one sample. Negative samples clamp to zero (they cannot
// occur for virtual-time durations; the clamp keeps the bucket math
// total).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.buckets) {
		grown := make([]int64, i+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Quantile returns an upper bound for the q-th quantile (q in [0,1]):
// the exclusive upper edge of the bucket containing that rank.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.count-1)) + 1
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			hi := bucketLow(i+1) - 1
			if hi > h.max {
				hi = h.max
			}
			if hi < h.min {
				hi = h.min
			}
			return hi
		}
	}
	return h.max
}

// --- snapshots (the metrics.json schema) ---

// CounterSnap is one serialized counter.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one serialized gauge.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: samples v with
// Low ≤ v ≤ High occurred Count times.
type BucketSnap struct {
	Low   int64 `json:"low"`
	High  int64 `json:"high"`
	Count int64 `json:"count"`
}

// HistSnap is one serialized histogram with pre-computed summary
// quantiles (bucket upper bounds).
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	P50     int64        `json:"p50"`
	P99     int64        `json:"p99"`
	Buckets []BucketSnap `json:"buckets"`
}

// MetricsSnapshot is the full registry state — the contents of
// metrics.json. All slices are sorted by name, so marshalling the same
// simulation twice yields identical bytes.
type MetricsSnapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot freezes the registry into its serializable form.
func (r *Registry) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.v})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		hs := HistSnap{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
		for i, c := range h.buckets {
			if c == 0 {
				continue
			}
			hs.Buckets = append(hs.Buckets, BucketSnap{
				Low: bucketLow(i), High: bucketLow(i+1) - 1, Count: c,
			})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Hist returns the named histogram snapshot, or nil.
func (s *MetricsSnapshot) Hist(name string) *HistSnap {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// CounterValue returns the named counter's value (zero when absent).
func (s *MetricsSnapshot) CounterValue(name string) int64 {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value
		}
	}
	return 0
}
