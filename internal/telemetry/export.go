package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// AccountSnapshot is one row of the cycle-attribution table.
type AccountSnapshot struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Pct    float64 `json:"pct"`
}

// MetricSnapshot is one exported counter or gauge.
type MetricSnapshot struct {
	Compartment string `json:"compartment"`
	Metric      string `json:"metric"`
	Value       int64  `json:"value"`
}

// HistogramSnapshot is one exported histogram.
type HistogramSnapshot struct {
	Compartment string   `json:"compartment"`
	Metric      string   `json:"metric"`
	Count       uint64   `json:"count"`
	Sum         uint64   `json:"sum"`
	Min         uint64   `json:"min"`
	Max         uint64   `json:"max"`
	Bounds      []uint64 `json:"bounds"`
	Counts      []uint64 `json:"counts"`
}

// Percentile returns the q-th percentile (0 < q <= 100) of the recorded
// distribution, resolved to a bucket upper bound (nearest-rank over the
// bucket counts; no interpolation, so a sparse histogram never reports a
// value between buckets that was never observed). Edge cases are exact:
// an empty histogram returns 0, q <= 0 returns Min, samples landing in
// the overflow bucket (or a bound above the true maximum) clamp to Max.
func (h HistogramSnapshot) Percentile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q > 100 {
		q = 100
	}
	rank := uint64(q/100*float64(h.Count) + 0.5)
	if rank == 0 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) && h.Bounds[i] < h.Max {
				return h.Bounds[i]
			}
			// Overflow bucket, or a bound past the recorded maximum:
			// report the true observed Max instead of a bucket edge that
			// no sample reached.
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is the full JSON-exportable state of a registry.
type Snapshot struct {
	Hz               uint64              `json:"hz"`
	BaseCycles       uint64              `json:"base_cycles"`
	AttributedCycles uint64              `json:"attributed_cycles"`
	Compartments     []AccountSnapshot   `json:"compartments"`
	Threads          []AccountSnapshot   `json:"threads"`
	Counters         []MetricSnapshot    `json:"counters"`
	Gauges           []MetricSnapshot    `json:"gauges"`
	Histograms       []HistogramSnapshot `json:"histograms"`
	TraceEvents      int                 `json:"trace_events"`
	TraceDropped     uint64              `json:"trace_dropped"`
}

// Snapshot captures the registry's state in a deterministic, serializable
// form. Nil-safe (returns a zero snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Hz:               r.hz,
		BaseCycles:       r.base,
		AttributedCycles: r.AttributedCycles(),
		TraceEvents:      r.ring.Len(),
		TraceDropped:     r.ring.Dropped(),
	}
	s.Compartments = accountSnapshots(r.Accounts(), s.AttributedCycles)
	s.Threads = accountSnapshots(r.ThreadAccounts(), s.AttributedCycles)
	for _, k := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, MetricSnapshot{
			Compartment: k.Compartment, Metric: k.Metric,
			Value: int64(r.counters[k].Value()),
		})
	}
	for _, k := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, MetricSnapshot{
			Compartment: k.Compartment, Metric: k.Metric,
			Value: r.gauges[k].Value(),
		})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Compartment: k.Compartment, Metric: k.Metric,
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Bounds: h.bounds, Counts: h.counts,
		})
	}
	return s
}

func accountSnapshots(accounts []*CycleAccount, total uint64) []AccountSnapshot {
	out := make([]AccountSnapshot, 0, len(accounts))
	for _, a := range accounts {
		row := AccountSnapshot{Name: a.name, Cycles: a.cycles}
		if total > 0 {
			row.Pct = 100 * float64(a.cycles) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteTable writes the human-readable attribution table — the Fig. 6-style
// breakdown of where every simulated cycle went — followed by per-thread
// attribution, counters, gauges, and histogram summaries.
func (r *Registry) WriteTable(w io.Writer) {
	r.Snapshot().WriteTable(w)
}

// WriteTable renders the snapshot as the same human-readable table; it
// also works on merged snapshots (see Merge), where the cycles are summed
// across many registries.
func (s Snapshot) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "cycle attribution (%d cycles accounted", s.AttributedCycles)
	if s.BaseCycles > 0 {
		fmt.Fprintf(w, ", after %d boot cycles", s.BaseCycles)
	}
	fmt.Fprintf(w, "):\n")
	fmt.Fprintf(w, "  %-22s %14s %7s\n", "compartment", "cycles", "share")
	if len(s.Compartments) == 0 {
		fmt.Fprintf(w, "  (no compartments recorded)\n")
	}
	for _, a := range s.Compartments {
		fmt.Fprintf(w, "  %-22s %14d %6.2f%%\n", a.Name, a.Cycles, a.Pct)
	}
	if len(s.Threads) > 0 {
		fmt.Fprintf(w, "\nper-thread:\n")
		for _, a := range s.Threads {
			fmt.Fprintf(w, "  %-22s %14d %6.2f%%\n", a.Name, a.Cycles, a.Pct)
		}
	}
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		fmt.Fprintf(w, "\nmetrics:\n")
		for _, m := range s.Counters {
			fmt.Fprintf(w, "  %-40s %14d\n", m.Compartment+"/"+m.Metric, m.Value)
		}
		for _, m := range s.Gauges {
			fmt.Fprintf(w, "  %-40s %14d (gauge)\n", m.Compartment+"/"+m.Metric, m.Value)
		}
	}
	for _, h := range s.Histograms {
		mean := float64(0)
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		fmt.Fprintf(w, "\nhistogram %s/%s: n=%d min=%d mean=%.1f max=%d\n",
			h.Compartment, h.Metric, h.Count, h.Min, mean, h.Max)
		if h.Count > 0 && len(h.Counts) == 0 {
			// A merge across incompatible bucket layouts degrades to
			// count/sum/min/max (see Merge); say so instead of rendering
			// an empty distribution.
			fmt.Fprintf(w, "  (buckets dropped: merged histograms had different bounds)\n")
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "  <=%-8d %8d\n", h.Bounds[i], c)
			} else {
				fmt.Fprintf(w, "  +Inf      %8d\n", c)
			}
		}
	}
	if s.TraceEvents > 0 || s.TraceDropped > 0 {
		fmt.Fprintf(w, "\ntrace: %d events held, %d dropped\n", s.TraceEvents, s.TraceDropped)
	}
}
