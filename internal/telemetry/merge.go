package telemetry

import (
	"math"
	"sort"
)

// Merge combines snapshots taken from independent registries — one per
// simulated device in a fleet run — into a single fleet-level snapshot:
//
//   - cycle accounts (compartments, threads) sum by name, with
//     percentages recomputed against the merged attributed total;
//   - counters and gauges sum by (compartment, metric) key;
//   - histograms with identical bucket bounds merge bucket-wise; on a
//     bounds mismatch the distribution degrades to count/sum/min/max
//     (buckets dropped) rather than mixing incompatible bucket layouts;
//   - BaseCycles and AttributedCycles sum, preserving the attribution
//     invariant fleet-wide: merged AttributedCycles equals the sum over
//     devices of (clock − base).
//
// The result is deterministic: every section is sorted the same way
// regardless of input order (accounts by cycles descending then name,
// metrics by key).
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	compartments := make(map[string]uint64)
	threads := make(map[string]uint64)
	counters := make(map[Key]int64)
	gauges := make(map[Key]int64)
	hists := make(map[Key]*Histogram)

	for _, s := range snaps {
		if out.Hz == 0 {
			out.Hz = s.Hz
		}
		out.BaseCycles += s.BaseCycles
		out.AttributedCycles += s.AttributedCycles
		// Trace accounting saturates instead of wrapping: a fleet of
		// devices each near its own ring cap can overflow a plain sum,
		// and a wrapped drop counter would report a healthy-looking
		// small number.
		out.TraceEvents = satAddInt(out.TraceEvents, s.TraceEvents)
		out.TraceDropped = satAddU64(out.TraceDropped, s.TraceDropped)
		for _, a := range s.Compartments {
			compartments[a.Name] += a.Cycles
		}
		for _, a := range s.Threads {
			threads[a.Name] += a.Cycles
		}
		for _, m := range s.Counters {
			counters[Key{m.Compartment, m.Metric}] += m.Value
		}
		for _, m := range s.Gauges {
			gauges[Key{m.Compartment, m.Metric}] += m.Value
		}
		for _, h := range s.Histograms {
			mergeHistogram(hists, h)
		}
	}

	out.Compartments = mergedAccounts(compartments, out.AttributedCycles)
	out.Threads = mergedAccounts(threads, out.AttributedCycles)
	out.Counters = mergedMetrics(counters)
	out.Gauges = mergedMetrics(gauges)
	out.Histograms = mergedHistograms(hists)
	return out
}

// satAddU64 adds with saturation at the uint64 maximum.
func satAddU64(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// satAddInt adds two non-negative ints with saturation at MaxInt.
func satAddInt(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func mergeHistogram(into map[Key]*Histogram, h Histogram) {
	if h.Count == 0 {
		return
	}
	k := Key{h.Compartment, h.Metric}
	acc := into[k]
	if acc == nil {
		c := h
		c.Bounds = append([]uint64(nil), h.Bounds...)
		c.Counts = append([]uint64(nil), h.Counts...)
		into[k] = &c
		return
	}
	acc.Count += h.Count
	acc.Sum += h.Sum
	if h.Min < acc.Min {
		acc.Min = h.Min
	}
	if h.Max > acc.Max {
		acc.Max = h.Max
	}
	if len(acc.Bounds) == len(h.Bounds) && boundsEqual(acc.Bounds, h.Bounds) {
		for i := range h.Counts {
			acc.Counts[i] += h.Counts[i]
		}
	} else {
		acc.Bounds, acc.Counts = nil, nil
	}
}

func boundsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mergedAccounts(m map[string]uint64, total uint64) []AccountSnapshot {
	if len(m) == 0 {
		return nil // Merge() of empty snapshots stays a zero Snapshot
	}
	out := make([]AccountSnapshot, 0, len(m))
	for name, cycles := range m {
		a := AccountSnapshot{Name: name, Cycles: cycles}
		if total > 0 {
			a.Pct = 100 * float64(cycles) / float64(total)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func mergedMetrics(m map[Key]int64) []MetricSnapshot {
	if len(m) == 0 {
		return nil
	}
	out := make([]MetricSnapshot, 0, len(m))
	for k, v := range m {
		out = append(out, MetricSnapshot{Compartment: k.Compartment, Metric: k.Metric, Value: v})
	}
	sortMetrics(out)
	return out
}

// sortMetrics orders metrics by (compartment, metric).
func sortMetrics(ms []MetricSnapshot) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Compartment != ms[j].Compartment {
			return ms[i].Compartment < ms[j].Compartment
		}
		return ms[i].Metric < ms[j].Metric
	})
}

func mergedHistograms(m map[Key]*Histogram) []Histogram {
	if len(m) == 0 {
		return nil
	}
	out := make([]Histogram, 0, len(m))
	for _, h := range m {
		out = append(out, *h)
	}
	sortHistograms(out)
	return out
}

// sortHistograms orders histograms by (compartment, metric).
func sortHistograms(hs []Histogram) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Compartment != hs[j].Compartment {
			return hs[i].Compartment < hs[j].Compartment
		}
		return hs[i].Metric < hs[j].Metric
	})
}
