// Telemetry-overhead benchmark (ISSUE: unified telemetry layer).
//
// Measures the cross-compartment call path with telemetry disabled and
// enabled. Two numbers matter:
//
//   - simulated cycles per call must be IDENTICAL in both modes — the
//     telemetry layer observes the clock, it never advances it;
//   - host ns per call shows what the instrumentation costs the
//     simulator itself (disabled mode pays only a nil check).
//
// TestBenchTelemetryJSON records both into BENCH_telemetry.json.
package cheriot_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
)

// telemetryCallRun boots the Fig. 6a empty-call image, optionally enables
// telemetry, performs n cross-compartment round trips, and returns the
// simulated cycles and host wall time spent in the call loop.
func telemetryCallRun(tb testing.TB, enabled bool, n int) (uint64, time.Duration) {
	tb.Helper()
	var cycles uint64
	var host time.Duration
	img := core.NewImage("telbench")
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "fn", MinStack: 0, Entry: nop}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "fn"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if _, err := ctx.Call("server", "fn"); err != nil { // warm-up
					tb.Errorf("warm-up: %v", err)
					return nil
				}
				start := ctx.Now()
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if _, err := ctx.Call("server", "fn"); err != nil {
						tb.Errorf("call: %v", err)
						return nil
					}
				}
				host = time.Since(t0)
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	s, err := core.Boot(img)
	if err != nil {
		tb.Fatalf("Boot: %v", err)
	}
	if enabled {
		s.EnableTelemetry(0)
	}
	if err := s.Run(nil); err != nil {
		s.Shutdown()
		tb.Fatalf("Run: %v", err)
	}
	s.Shutdown()
	return cycles, host
}

// BenchmarkTelemetryOverhead_CallPath reports the cross-compartment call
// cost in simulated cycles with telemetry off and on. The two must agree:
// enabling telemetry is free in simulated time.
func BenchmarkTelemetryOverhead_CallPath(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cycles, _ := telemetryCallRun(b, mode.enabled, b.N)
			per := float64(cycles) / float64(b.N)
			b.ReportMetric(per, "simcycles/call")
			printOnce("telbench-"+mode.name,
				fmt.Sprintf("telemetry %-8s %8.1f cycles/call\n", mode.name, per))
		})
	}
}

// TestBenchTelemetryJSON verifies that telemetry never perturbs the
// simulated clock on the call path and emits BENCH_telemetry.json with
// the disabled-vs-enabled host-side cost of the instrumentation.
func TestBenchTelemetryJSON(t *testing.T) {
	const calls = 20000
	const reps = 3

	minRun := func(enabled bool) (uint64, time.Duration) {
		cycles, best := uint64(0), time.Duration(0)
		for i := 0; i < reps; i++ {
			c, h := telemetryCallRun(t, enabled, calls)
			if cycles == 0 {
				cycles = c
			} else if c != cycles {
				t.Fatalf("simulation is not deterministic: %d vs %d cycles", c, cycles)
			}
			if best == 0 || h < best {
				best = h
			}
		}
		return cycles, best
	}

	disCycles, disHost := minRun(false)
	enCycles, enHost := minRun(true)

	// The zero-simulated-cost property, checked exactly: counters, cycle
	// accounts, and ring events observe the clock but never advance it.
	if disCycles != enCycles {
		t.Fatalf("enabling telemetry changed the simulated call path: %d vs %d cycles for %d calls",
			disCycles, enCycles, calls)
	}

	disNs := float64(disHost.Nanoseconds()) / calls
	enNs := float64(enHost.Nanoseconds()) / calls
	overheadPct := 100 * (enNs - disNs) / disNs

	report := map[string]any{
		"benchmark":                 "telemetry overhead on the cross-compartment call path",
		"calls_per_run":             calls,
		"runs_per_mode":             reps,
		"sim_cycles_per_call":       float64(disCycles) / calls,
		"sim_overhead_cycles":       enCycles - disCycles,
		"host_ns_per_call_disabled": disNs,
		"host_ns_per_call_enabled":  enNs,
		"host_enabled_overhead_pct": overheadPct,
		"sim_cycles_identical":      disCycles == enCycles,
		"note": "telemetry observes the simulated clock but never advances it, so enabling it " +
			"costs zero simulated cycles; disabled mode pays only a nil check per hook. " +
			"Host ns/call figures are machine-dependent and indicative only.",
	}
	writeBenchJSON(t, "BENCH_telemetry.json", report)
	t.Logf("call path: %.1f simcycles/call, host %.0f ns/call disabled vs %.0f ns/call enabled (%.1f%%)",
		float64(disCycles)/calls, disNs, enNs, overheadPct)
}
