package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
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

// Snapshot is the full JSON-exportable state of a registry.
type Snapshot struct {
	Hz               uint64            `json:"hz"`
	BaseCycles       uint64            `json:"base_cycles"`
	AttributedCycles uint64            `json:"attributed_cycles"`
	Compartments     []AccountSnapshot `json:"compartments"`
	Threads          []AccountSnapshot `json:"threads"`
	Counters         []MetricSnapshot  `json:"counters"`
	Gauges           []MetricSnapshot  `json:"gauges"`
	Histograms       []Histogram       `json:"histograms"`
	TraceEvents      int               `json:"trace_events"`
	TraceDropped     uint64            `json:"trace_dropped"`
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
	for k := range kinds {
		info := &kinds[k]
		if info.counter != (Key{}) && (info.kernel || r.counts[k] > 0) {
			s.Counters = append(s.Counters, MetricSnapshot{
				Compartment: info.counter.Compartment, Metric: info.counter.Metric,
				Value: int64(r.counts[k]),
			})
		}
	}
	sortMetrics(s.Counters)
	if r.quarantined {
		s.Gauges = []MetricSnapshot{{Compartment: "alloc", Metric: "quarantine_bytes", Value: r.quarantine}}
	}
	for _, h := range r.sizes {
		if h != nil {
			// The bounds are never written; the counts go on counting.
			c := *h
			c.Counts = slices.Clone(h.Counts)
			s.Histograms = append(s.Histograms, c)
		}
	}
	sortHistograms(s.Histograms)
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
