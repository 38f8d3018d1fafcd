package telemetry

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The histogram oracle: samples drawn from input bytes go into several
// histograms and, beside them, into plain lists. Each histogram's
// snapshot, and that of two recorders of one registry name, must equal
// what the list predicts with bucket bounds spelled here from the
// layout's definition (values below 16 exact; above, octave
// [2^e, 2^(e+1)) cut into sixteen sub-buckets of width 2^(e-4)),
// sharing no code with bucketIndex or bucketLow.

// refBucket returns the bounds of the bucket holding v ≥ 0.
func refBucket(v int64) (low, high int64) {
	if v < 16 {
		return v, v
	}
	e := uint(4)
	for e < 62 && uint64(v) >= uint64(1)<<(e+1) {
		e++
	}
	width := uint64(1) << (e - 4)
	k := (uint64(v) - uint64(1)<<e) / width
	lo := uint64(1)<<e + k*width
	return int64(lo), int64(lo + width - 1)
}

// refSnap is the snapshot of a histogram that recorded samples.
func refSnap(samples []int64) (HistSnap, bool) {
	if len(samples) == 0 {
		return HistSnap{}, false
	}
	s := make([]int64, len(samples))
	for i, v := range samples {
		s[i] = max(v, 0)
	}
	slices.Sort(s)
	snap := HistSnap{Name: "h", Count: int64(len(s)), Min: s[0], Max: s[len(s)-1]}
	for _, v := range s {
		snap.Sum += v
		low, high := refBucket(v)
		if n := len(snap.Buckets); n > 0 && snap.Buckets[n-1].Low == low {
			snap.Buckets[n-1].Count++
		} else {
			snap.Buckets = append(snap.Buckets, BucketSnap{Low: low, High: high, Count: 1})
		}
	}
	// A quantile is the upper edge of the bucket holding the sample of
	// its rank, clamped to the samples' range.
	quantile := func(q float64) int64 {
		_, high := refBucket(s[int64(q*float64(len(s)-1))])
		return min(max(high, snap.Min), snap.Max)
	}
	snap.P50, snap.P99 = quantile(0.50), quantile(0.99)
	return snap, true
}

// snapOf is h's snapshot through a registry of its own.
func snapOf(h *Histogram) (HistSnap, bool) {
	r := NewRegistry()
	r.hists["h"] = h
	hs := r.Snapshot().Histograms
	if len(hs) == 0 {
		return HistSnap{}, false
	}
	return hs[0], true
}

// checkHistograms records the samples d describes into up to four
// histograms, one that sees them all, and two recorders of one registry
// name that split them, then holds every snapshot to the reference and
// every histogram's buckets to the layout: from 0 to the end of its
// largest sample's octave.
func checkHistograms(t *testing.T, d *draw) {
	t.Helper()
	parts := make([]Histogram, 1+int(d.byte())%4)
	samples := make([][]int64, len(parts))
	var all Histogram
	var every []int64
	r := NewRegistry()
	recorders := [2]*Histogram{r.Histogram("h"), r.Histogram("h")}
	for range int(d.byte())<<1 | int(d.byte()&1) {
		c := d.byte()
		// Magnitudes spread over every octave; only an unshifted draw
		// can be negative (and clamps to zero).
		v := int64(uint64(d.int64()) >> (c % 64))
		p := int(c/64) % len(parts)
		parts[p].Record(v)
		samples[p] = append(samples[p], v)
		all.Record(v)
		every = append(every, v)
		recorders[p%2].Record(v)
	}
	check := func(what string, got *Histogram, samples []int64) {
		t.Helper()
		g, gok := snapOf(got)
		w, wok := refSnap(samples)
		if gok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s of %v:\n got  %+v (%v)\n want %+v (%v)", what, samples, g, gok, w, wok)
		}
		end := 0
		if len(samples) > 0 {
			end = (bucketIndex(w.Max) | (1<<subBits - 1)) + 1
		}
		if len(got.buckets) != end {
			t.Fatalf("%s of %v: %d buckets, want %d", what, samples, len(got.buckets), end)
		}
	}
	for i := range parts {
		check("part", &parts[i], samples[i])
	}
	check("one histogram", &all, every)
	check("two recorders of one name", r.hists["h"], every)
	if hs := r.Snapshot().Histograms; len(hs) != min(len(every), 1) {
		t.Fatalf("the registry's snapshot of %d samples holds %d histograms", len(every), len(hs))
	}
}

func TestHistogramMatchesReferenceSeeds(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(data)
		checkHistograms(t, &draw{data})
	}
}

func FuzzHistogramMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkHistograms(t, &draw{data}) })
}
