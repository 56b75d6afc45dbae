// Flight-recorder overhead benchmark (ISSUE: flight recorder +
// capability provenance).
//
// Runs the full Fig. 7 IoT case study — the fig7-style hot path: MQTT
// over TLS over the compartmentalized TCP/IP stack, including the ping
// of death and micro-reboot — in three modes:
//
//   - recorder off: the baseline, every hook pays only a nil check;
//   - recorder on: a 512-entry ring records calls, allocations, traps,
//     and sweeps for the entire run;
//   - recorder on + fault dump: same, plus serializing the black box
//     (the post-crash forensics path) after the run.
//
// Two properties matter: simulated cycles must be IDENTICAL in all
// modes (the recorder observes the clock, never advances it), and the
// host-side cost of recording must stay under 2x the disabled baseline.
// TestBenchFlightrecJSON records both into BENCH_flightrec.json under
// -update (`make bench-json`); a plain run keeps only the deterministic
// checks, one run per mode.
package cheriot_test

import (
	"io"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/iotapp"
)

// flightrecFig7Run executes one Fig. 7 case-study run with the given
// recorder ring capacity (0 = disabled) and returns the simulated
// cycles, the host wall time of the run, the host time spent dumping
// the black box (when dump is set), and the number of crash reports the
// recorder captured.
func flightrecFig7Run(tb testing.TB, capacity int, dump bool) (uint64, time.Duration, time.Duration, uint64) {
	tb.Helper()
	app, err := iotapp.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	defer app.Shutdown()
	if capacity > 0 {
		app.Sys.EnableFlightRecorder(capacity)
	}
	t0 := time.Now()
	if _, err := app.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	host := time.Since(t0)
	cycles := app.Sys.Cycles()
	var dumpHost time.Duration
	if dump && capacity > 0 {
		d0 := time.Now()
		d := app.Sys.FlightDump()
		if err := d.WriteJSON(io.Discard); err != nil {
			tb.Fatalf("WriteJSON: %v", err)
		}
		dumpHost = time.Since(d0)
	}
	var reports uint64
	if capacity > 0 {
		reports = app.Sys.FlightRecorder().ReportsTotal()
	}
	return cycles, host, dumpHost, reports
}

// BenchmarkFlightrecOverhead_Fig7 reports the case-study cost with the
// recorder off and on. Simulated cycles must agree across modes.
func BenchmarkFlightrecOverhead_Fig7(b *testing.B) {
	for _, mode := range []struct {
		name     string
		capacity int
	}{{"disabled", 0}, {"enabled", 512}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cycles, host, _, _ := flightrecFig7Run(b, mode.capacity, false)
				b.ReportMetric(float64(cycles), "simcycles")
				b.ReportMetric(float64(host.Milliseconds()), "host-ms")
			}
		})
	}
}

// flightrecFree checks the recorder's deterministic contracts: it
// costs zero simulated cycles, and the Fig. 7 ping of death leaves a
// crash report in the black box.
func flightrecFree(t *testing.T, disCycles, enCycles, reports uint64) {
	t.Helper()
	// The recorder observes the clock but never advances it, so the
	// Fig. 7 trace is cycle-for-cycle identical with the black box
	// running.
	if disCycles != enCycles {
		t.Fatalf("enabling the flight recorder changed the simulation: %d vs %d cycles",
			disCycles, enCycles)
	}
	if reports == 0 {
		t.Fatal("recorder captured no crash report from the Fig. 7 ping of death")
	}
}

// TestBenchFlightrecJSON checks the recorder's zero-simulated-cost
// property exactly. Under -update it also checks the <2x host-overhead
// acceptance bound and emits BENCH_flightrec.json with the off / on /
// on+dump numbers.
func TestBenchFlightrecJSON(t *testing.T) {
	const reps = 3

	if !*update {
		// Tier-1 keeps the deterministic half, one run per mode.
		disCycles, _, _, _ := flightrecFig7Run(t, 0, false)
		enCycles, _, _, reports := flightrecFig7Run(t, 512, false)
		flightrecFree(t, disCycles, enCycles, reports)
		return
	}

	minRun := func(capacity int, dump bool) (uint64, time.Duration, time.Duration, uint64) {
		var cycles, reports uint64
		var best, bestDump time.Duration
		for i := 0; i < reps; i++ {
			c, h, dh, r := flightrecFig7Run(t, capacity, dump)
			if cycles == 0 {
				cycles, reports = c, r
			} else if c != cycles {
				t.Fatalf("simulation is not deterministic: %d vs %d cycles", c, cycles)
			}
			if best == 0 || h < best {
				best = h
			}
			if dump && (bestDump == 0 || dh < bestDump) {
				bestDump = dh
			}
		}
		return cycles, best, bestDump, reports
	}

	disCycles, disHost, _, _ := minRun(0, false)
	enCycles, enHost, dumpHost, reports := minRun(512, true)

	flightrecFree(t, disCycles, enCycles, reports)

	ratio := float64(enHost) / float64(disHost)
	// Acceptance bound from the ISSUE: recorder-enabled must stay under
	// 2x the disabled baseline. In practice it is a few percent.
	if ratio >= 2 {
		t.Errorf("recorder-on host cost is %.2fx the baseline, want < 2x", ratio)
	}

	report := map[string]any{
		"benchmark":            "flight-recorder overhead on the Fig. 7 full-system case study",
		"runs_per_mode":        reps,
		"sim_cycles":           disCycles,
		"sim_cycles_identical": disCycles == enCycles,
		"ring_capacity":        512,
		"crash_reports":        reports,
		"host_ms_disabled":     float64(disHost.Microseconds()) / 1000,
		"host_ms_enabled":      float64(enHost.Microseconds()) / 1000,
		"host_enabled_ratio":   ratio,
		"host_ms_fault_dump":   float64(dumpHost.Microseconds()) / 1000,
		"acceptance_under_2x":  ratio < 2,
		"note": "the recorder observes the simulated clock but never advances it, so enabling it " +
			"costs zero simulated cycles; the host-side ratio is the cost of appending typed " +
			"records to the fixed ring on each hook. Fault-dump ms is the one-time cost of " +
			"serializing the black box after a crash. Host figures are machine-dependent.",
	}
	writeBenchJSON(t, "BENCH_flightrec.json", report)
	t.Logf("fig7: %d simcycles in all modes; host %s off, %s on (%.2fx), dump %s, %d reports",
		disCycles, disHost, enHost, ratio, dumpHost, reports)
}
