package iotapp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTelemetryChromeTrace runs the full §5.3.3 case study with the
// unified telemetry layer and the flight recorder on and checks the
// end-to-end properties the exporters promise: the cycle attribution sums
// exactly to the clock, and the Chrome trace_event export is valid JSON
// carrying balanced slices from every instrumented layer (kernel,
// scheduler, allocator, netstack). The run is deterministic, so it also
// pins both event streams kind by kind and the export's shape.
func TestTelemetryChromeTrace(t *testing.T) {
	app, err := Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer app.Shutdown()
	reg := app.Sys.EnableTelemetry(1 << 16)
	rec := app.Sys.EnableFlightRecorder(1 << 16)
	if _, err := app.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	traced := map[string]int{}
	for _, e := range reg.Ring().Events() {
		traced[e.Kind.String()]++
	}
	pinCounts(t, "trace ring", traced, map[string]int{
		"call": 1184, "return": 1179, "futex-wait": 831, "switch": 807,
		"sleep": 69, "futex-wake": 33, "alloc": 27, "free": 18,
		"quarantine": 18, "net-rx": 17, "net-tx": 14, "recv": 11, "send": 8,
		"sweep-start": 6, "sweep-end": 6, "trap": 1, "unwind": 1,
	})
	recorded := map[string]int{}
	for _, e := range rec.Events() {
		recorded[e.Kind.String()]++
	}
	// The recorder's futex wakes are the trace's: one per woken waiter.
	pinCounts(t, "flight recorder", recorded, map[string]int{
		"call": 1184, "return": 1179, "futex-wait": 831, "unseal": 47,
		"derive": 36, "alloc": 27, "free": 18, "futex-wake": 33, "seal": 11,
		"sweep-start": 6, "sweep-end": 6, "trap": 1, "unwind": 1, "reboot": 1,
	})

	elapsed := app.Sys.Cycles() - reg.Base()
	if got := reg.AttributedCycles(); got != elapsed {
		t.Fatalf("attributed %d cycles, clock advanced %d", got, elapsed)
	}

	// Every instrumented layer contributed metrics during the scenario.
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Compartment+"/"+c.Metric] = c.Value
	}
	for _, want := range []string{
		"<switcher>/compartment_calls", // kernel
		"sched/futex_waits",            // scheduler
		"alloc/mallocs",                // allocator
		"tcpip/rx_frames",              // netstack
	} {
		if counters[want] <= 0 {
			t.Errorf("counter %s = %d, want > 0", want, counters[want])
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	begins, ends := 0, 0
	cats := map[string]int{}
	lastTs := map[int]float64{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "i", "M":
		default:
			t.Fatalf("unexpected phase %q in event %q", e.Ph, e.Name)
		}
		if e.Ph != "M" {
			cats[e.Cat]++
			if ts, ok := lastTs[e.Tid]; ok && e.Ts < ts {
				t.Fatalf("timestamps regress on tid %d: %f after %f", e.Tid, e.Ts, ts)
			}
			lastTs[e.Tid] = e.Ts
		}
	}
	if begins != ends {
		t.Fatalf("unbalanced duration slices: %d B vs %d E", begins, ends)
	}
	if n := len(trace.TraceEvents); n != 4239 || begins != 1184 {
		t.Errorf("chrome export: %d events, %d B/E pairs; want 4239 events, 1184 pairs", n, begins)
	}
	pinCounts(t, "chrome categories", cats, map[string]int{
		"kernel": 3176, "sched": 933, "alloc": 75, "net": 50,
	})
}

// pinCounts compares per-name event counts with their pinned values.
func pinCounts(t *testing.T, what string, got, want map[string]int) {
	t.Helper()
	total, wantTotal := 0, 0
	for _, n := range got {
		total += n
	}
	for name, n := range want {
		wantTotal += n
		if got[name] != n {
			t.Errorf("%s: %d %s events, want %d", what, got[name], name, n)
		}
	}
	if total != wantTotal {
		t.Errorf("%s: %d events in all, want %d (got %v)", what, total, wantTotal, got)
	}
}
