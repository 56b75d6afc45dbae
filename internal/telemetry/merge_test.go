package telemetry

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		Hz: 33_000_000, BaseCycles: 100, AttributedCycles: 600,
		Compartments: []AccountSnapshot{{Name: "alloc", Cycles: 400}, {Name: "sched", Cycles: 200}},
		Threads:      []AccountSnapshot{{Name: "t0", Cycles: 600}},
		Counters:     []MetricSnapshot{{Compartment: "mqtt", Metric: "publishes", Value: 3}},
		Histograms: []Histogram{{
			Compartment: "fleet", Metric: "connect_cycles",
			Count: 2, Sum: 30, Min: 10, Max: 20,
			Bounds: []uint64{16, 64}, Counts: []uint64{1, 1, 0},
		}},
	}
	b := Snapshot{
		Hz: 33_000_000, BaseCycles: 50, AttributedCycles: 400,
		Compartments: []AccountSnapshot{{Name: "alloc", Cycles: 100}, {Name: "tls", Cycles: 300}},
		Counters: []MetricSnapshot{
			{Compartment: "mqtt", Metric: "publishes", Value: 5},
			{Compartment: "<switcher>", Metric: "traps", Value: 1},
		},
		Histograms: []Histogram{{
			Compartment: "fleet", Metric: "connect_cycles",
			Count: 1, Sum: 100, Min: 100, Max: 100,
			Bounds: []uint64{16, 64}, Counts: []uint64{0, 0, 1},
		}},
	}

	m := Merge(a, b)
	if m.Hz != 33_000_000 || m.BaseCycles != 150 || m.AttributedCycles != 1000 {
		t.Fatalf("totals: %+v", m)
	}
	// Accounts sum by name and sort by cycles descending; the invariant
	// Σ compartment cycles == merged AttributedCycles must hold exactly.
	wantComp := []AccountSnapshot{
		{Name: "alloc", Cycles: 500, Pct: 50},
		{Name: "tls", Cycles: 300, Pct: 30},
		{Name: "sched", Cycles: 200, Pct: 20},
	}
	if !reflect.DeepEqual(m.Compartments, wantComp) {
		t.Fatalf("compartments: %+v", m.Compartments)
	}
	var sum uint64
	for _, c := range m.Compartments {
		sum += c.Cycles
	}
	if sum != m.AttributedCycles {
		t.Fatalf("compartment cycles %d != attributed %d", sum, m.AttributedCycles)
	}
	wantCtr := []MetricSnapshot{
		{Compartment: "<switcher>", Metric: "traps", Value: 1},
		{Compartment: "mqtt", Metric: "publishes", Value: 8},
	}
	if !reflect.DeepEqual(m.Counters, wantCtr) {
		t.Fatalf("counters: %+v", m.Counters)
	}
	if len(m.Histograms) != 1 {
		t.Fatalf("histograms: %+v", m.Histograms)
	}
	h := m.Histograms[0]
	if h.Count != 3 || h.Sum != 130 || h.Min != 10 || h.Max != 100 {
		t.Fatalf("histogram totals: %+v", h)
	}
	if !reflect.DeepEqual(h.Counts, []uint64{1, 1, 1}) {
		t.Fatalf("histogram buckets: %+v", h.Counts)
	}

	// Merging is input-order independent.
	if !reflect.DeepEqual(Merge(b, a).Counters, m.Counters) {
		t.Fatal("merge not order independent")
	}
}

// TestMergeEmptySnapshots: merging nothing — or only zero snapshots —
// must yield exactly the zero Snapshot (nil sections, not empty
// slices), so JSON output and deep-equality don't depend on how many
// idle devices contributed.
func TestMergeEmptySnapshots(t *testing.T) {
	if m := Merge(); !reflect.DeepEqual(m, Snapshot{}) {
		t.Fatalf("Merge() = %+v, want zero snapshot", m)
	}
	if m := Merge(Snapshot{}, Snapshot{}); !reflect.DeepEqual(m, Snapshot{}) {
		t.Fatalf("Merge(zero, zero) = %+v, want zero snapshot", m)
	}
	// A histogram that never observed anything does not materialize a
	// merged section either.
	empty := Snapshot{Histograms: []Histogram{{
		Compartment: "c", Metric: "m", Bounds: []uint64{10}, Counts: []uint64{0, 0},
	}}}
	if m := Merge(empty); m.Histograms != nil {
		t.Fatalf("empty histogram leaked into merge: %+v", m.Histograms)
	}
}

// TestMergeTraceSaturation: fleet-summed trace accounting saturates at
// the type maxima instead of wrapping to a small healthy-looking value.
func TestMergeTraceSaturation(t *testing.T) {
	a := Snapshot{TraceEvents: math.MaxInt - 1, TraceDropped: math.MaxUint64 - 1}
	b := Snapshot{TraceEvents: 5, TraceDropped: 7}
	m := Merge(a, b)
	if m.TraceEvents != math.MaxInt {
		t.Errorf("TraceEvents = %d, want saturation at MaxInt", m.TraceEvents)
	}
	if m.TraceDropped != math.MaxUint64 {
		t.Errorf("TraceDropped = %d, want saturation at MaxUint64", m.TraceDropped)
	}
	// Far from the ceiling, sums stay exact.
	m = Merge(Snapshot{TraceEvents: 2, TraceDropped: 3}, Snapshot{TraceEvents: 4, TraceDropped: 5})
	if m.TraceEvents != 6 || m.TraceDropped != 8 {
		t.Errorf("plain sums wrong: %d, %d", m.TraceEvents, m.TraceDropped)
	}
}

// TestWriteTableEdgeCases: the human-readable table must say something
// sensible for a zero snapshot and for a degraded (buckets-dropped)
// histogram instead of rendering headers over nothing.
func TestWriteTableEdgeCases(t *testing.T) {
	var sb strings.Builder
	Snapshot{}.WriteTable(&sb)
	if !strings.Contains(sb.String(), "(no compartments recorded)") {
		t.Errorf("empty snapshot table missing placeholder:\n%s", sb.String())
	}

	sb.Reset()
	degraded := Snapshot{Histograms: []Histogram{{
		Compartment: "c", Metric: "m", Count: 2, Sum: 55, Min: 5, Max: 50,
	}}}
	degraded.WriteTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "histogram c/m: n=2") {
		t.Errorf("degraded histogram header missing:\n%s", out)
	}
	if !strings.Contains(out, "buckets dropped") {
		t.Errorf("degraded histogram not flagged:\n%s", out)
	}
}

func TestMergeHistogramBoundsMismatch(t *testing.T) {
	a := Snapshot{Histograms: []Histogram{{
		Compartment: "c", Metric: "m", Count: 1, Sum: 5, Min: 5, Max: 5,
		Bounds: []uint64{10}, Counts: []uint64{1, 0},
	}}}
	b := Snapshot{Histograms: []Histogram{{
		Compartment: "c", Metric: "m", Count: 1, Sum: 50, Min: 50, Max: 50,
		Bounds: []uint64{100}, Counts: []uint64{1, 0},
	}}}
	h := Merge(a, b).Histograms[0]
	if h.Count != 2 || h.Sum != 55 || h.Min != 5 || h.Max != 50 {
		t.Fatalf("mismatch merge: %+v", h)
	}
	if h.Bounds != nil || h.Counts != nil {
		t.Fatalf("expected buckets dropped on bounds mismatch: %+v", h)
	}
}
