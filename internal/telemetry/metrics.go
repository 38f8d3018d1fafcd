package telemetry

import (
	"math/bits"
	"sort"
)

// Registry builds the contents of metrics.json: named counters, gauges
// and histograms, written once at the end of a run by the components
// that kept them. Snapshots sort by name so serialized output is
// deterministic.
type Registry struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		hists:    map[string]Histogram{},
	}
}

// Add adds v to the named counter, creating it (at v, even 0) if needed.
func (r *Registry) Add(name string, v int64) { r.counters[name] += v }

// Set sets the named gauge to v.
func (r *Registry) Set(name string, v int64) { r.gauges[name] = v }

// AddHistogram merges h into the named histogram: buckets, count and sum
// add, min and max are taken over the non-empty histograms. An empty h
// is skipped, so a histogram is present exactly when it has a sample.
// The first h under a name is adopted, not copied: a merge writes a new
// bucket slice, so an adopted histogram's buckets are only read.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	if h.count == 0 {
		return
	}
	dst, ok := r.hists[name]
	if !ok {
		r.hists[name] = *h
		return
	}
	lo := min(dst.base, h.base)
	b := make([]int64, max(dst.base+len(dst.buckets), h.base+len(h.buckets))-lo)
	copy(b[dst.base-lo:], dst.buckets)
	for j, c := range h.buckets {
		b[h.base-lo+j] += c
	}
	dst.buckets, dst.base = b, lo
	dst.min = min(dst.min, h.min)
	dst.max = max(dst.max, h.max)
	dst.count += h.count
	dst.sum += h.sum
	r.hists[name] = dst
}

// subBits sets histogram resolution: 2^subBits linear sub-buckets per
// power-of-two octave, i.e. worst-case relative error 1/2^subBits ≈ 6%.
const subBits = 4

// Histogram is a log-linear histogram of non-negative int64 samples
// (virtual-time durations in nanoseconds, queue depths, …): values below
// 2^subBits are counted exactly; above, each power-of-two octave is
// split into 2^subBits linear sub-buckets — the HdrHistogram layout.
// It keeps one int64 per bucket of the whole octaves from its smallest
// sample's to its largest's, so it allocates once per octave its samples
// reach downward, and upward only as append's growth.
type Histogram struct {
	// buckets[j] counts bucket base+j; base is a multiple of 2^subBits.
	buckets []int64
	base    int
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
	const octave = 1 << subBits
	i := bucketIndex(v)
	if h.count == 0 {
		h.min, h.max, h.base = v, v, i&^(octave-1)
	}
	switch end := h.base + len(h.buckets); {
	case i >= end:
		// Upward to the end of i's octave, amortized by append; the
		// first sample allocates its octave here.
		h.buckets = append(h.buckets, make([]int64, i|(octave-1)+1-end)...)
	case i < h.base:
		// Downward to the start of i's octave: one copy per octave.
		lo := i &^ (octave - 1)
		b := make([]int64, h.base-lo+len(h.buckets))
		copy(b[h.base-lo:], h.buckets)
		h.buckets, h.base = b, lo
	}
	h.buckets[i-h.base]++
	h.count++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

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
	for j, c := range h.buckets {
		seen += c
		if seen >= rank {
			hi := bucketLow(h.base+j+1) - 1
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
	for name, v := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, v := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: v})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		hs := HistSnap{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
		for j, c := range h.buckets {
			if c == 0 {
				continue
			}
			i := h.base + j
			hs.Buckets = append(hs.Buckets, BucketSnap{
				Low: bucketLow(i), High: bucketLow(i+1) - 1, Count: c,
			})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
