// Fleet-observability overhead benchmark (ISSUE: fleetobs).
//
// Two contracts from the observability PR are measured on the
// BENCH_fleet.json workload (64 full-firmware devices, 12 simulated
// seconds, 2 Hz):
//
//  1. Disabled-but-armed tracing (ObsSample < 0) is free in simulated
//     time — the Summary is byte-identical to a run with Obs off — and
//     cheap in host time (median per-pair wall-clock ratio ≤1.10x).
//  2. Full tracing across an 8-shard cloud yields the per-shard
//     publish→deliver latency table recorded in BENCH_fleetobs.json.
//
// TestBenchFleetObsJSON measures and writes BENCH_fleetobs.json under
// -update (`make bench-json`); a plain run keeps only the deterministic
// checks, one run per mode.
package cheriot_test

import (
	"encoding/json"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
)

// fleetObsBenchRun runs the BENCH_fleet workload with the given obs
// knobs and returns the result plus total wall time.
func fleetObsBenchRun(tb testing.TB, mutate func(*fleet.Config)) (*fleet.Result, time.Duration) {
	tb.Helper()
	cfg := fleetBenchConfig(64, runtime.NumCPU())
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		tb.Fatalf("fleet.Run: %v", err)
	}
	return res, res.BootWall + res.RunWall
}

// BenchmarkFleetObsOverhead reports the wall-clock cost of the armed
// tracer relative to the baseline fleet.
func BenchmarkFleetObsOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, base := fleetObsBenchRun(b, nil)
		_, probe := fleetObsBenchRun(b, func(c *fleet.Config) { c.Obs, c.ObsSample = true, -1 })
		_, traced := fleetObsBenchRun(b, func(c *fleet.Config) { c.Obs, c.CloudShards = true, 8 })
		b.ReportMetric(probe.Seconds()/base.Seconds(), "probe-overhead-x")
		b.ReportMetric(traced.Seconds()/base.Seconds(), "traced-overhead-x")
	}
}

// medianWall returns the median of walls; it sorts walls in place.
func medianWall(walls []time.Duration) time.Duration {
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return walls[len(walls)/2]
}

// obsProbeFree checks the zero-simulated-cost contract: the
// armed-but-silent probe's Summary is the baseline Summary, bit for
// bit, once the (empty) obs report is removed. Any leak of tracing into
// simulated time breaks this.
func obsProbeFree(t *testing.T, base, probe *fleet.Result) bool {
	t.Helper()
	probeSummary := probe.Summary
	probeSummary.Obs = nil
	baseJSON, _ := json.Marshal(base.Summary)
	probeJSON, _ := json.Marshal(probeSummary)
	if string(baseJSON) != string(probeJSON) {
		t.Errorf("armed tracer changed the simulated outcome:\nbase  %s\nprobe %s", baseJSON, probeJSON)
		return false
	}
	return true
}

// tracedReport returns the traced run's observability report, failing
// t when the run traced nothing.
func tracedReport(t *testing.T, traced *fleet.Result) *fleetobs.Report {
	t.Helper()
	o := traced.Summary.Obs
	if o == nil || o.TracedPublishes == 0 || len(o.PerShard) == 0 {
		t.Fatalf("traced run produced no observability report: %+v", o)
	}
	return o
}

// TestBenchFleetObsJSON checks that the armed tracer costs no simulated
// cycles and that the traced 8-shard run reports. Under -update it also
// measures the disabled-tracing overhead against its ≤1.10x host-time
// budget and records it with the traced latency table in
// BENCH_fleetobs.json.
func TestBenchFleetObsJSON(t *testing.T) {
	const pairs, reps = 31, 5

	probeKnobs := func(c *fleet.Config) { c.Obs, c.ObsSample = true, -1 }
	tracedKnobs := func(c *fleet.Config) { c.Obs, c.CloudShards = true, 8 }

	if !*update {
		// Tier-1 keeps the deterministic half, one run per mode.
		base, _ := fleetObsBenchRun(t, nil)
		probe, _ := fleetObsBenchRun(t, probeKnobs)
		traced, _ := fleetObsBenchRun(t, tracedKnobs)
		obsProbeFree(t, base, probe)
		tracedReport(t, traced)
		return
	}
	if raceEnabled {
		t.Skip("wall-clock contract is meaningless under the race detector")
	}

	// Warm up allocator and page cache so neither mode pays first-run
	// costs. The workload is only 50-90 ms of wall clock, so one run
	// swings by 10-20% with host load and a single lucky run decides a
	// min-of-runs ratio. The gate is therefore the median of per-pair
	// probe/baseline ratios: each pair runs back to back so host drift
	// hits both halves, the order alternates so neither mode always
	// runs second, and a GC before every run keeps one run's garbage out
	// of the next one's time.
	fleetObsBenchRun(t, nil)
	fleetObsBenchRun(t, probeKnobs)

	var base, probe *fleet.Result
	baseWalls := make([]time.Duration, pairs)
	probeWalls := make([]time.Duration, pairs)
	ratios := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		runBase := func() { runtime.GC(); base, baseWalls[i] = fleetObsBenchRun(t, nil) }
		runProbe := func() { runtime.GC(); probe, probeWalls[i] = fleetObsBenchRun(t, probeKnobs) }
		if i%2 == 0 {
			runBase()
			runProbe()
		} else {
			runProbe()
			runBase()
		}
		ratios[i] = probeWalls[i].Seconds() / baseWalls[i].Seconds()
	}
	var traced *fleet.Result
	tracedWalls := make([]time.Duration, reps)
	for i := range tracedWalls {
		runtime.GC()
		traced, tracedWalls[i] = fleetObsBenchRun(t, tracedKnobs)
	}
	sort.Float64s(ratios)
	overhead := ratios[pairs/2]
	baseWall, probeWall, tracedWall := medianWall(baseWalls), medianWall(probeWalls), medianWall(tracedWalls)

	simIdentical := obsProbeFree(t, base, probe)

	if overhead > 1.10 {
		t.Errorf("disabled tracing costs %.3fx host time (median of %d pairs), budget 1.10x (base %.3fs, probe %.3fs, pair ratios %.3f)",
			overhead, pairs, baseWall.Seconds(), probeWall.Seconds(), ratios)
	}

	o := tracedReport(t, traced)
	perShard := make([]map[string]any, 0, len(o.PerShard))
	for _, sh := range o.PerShard {
		perShard = append(perShard, map[string]any{
			"shard":      sh.Shard,
			"ingress":    sh.Ingress,
			"forwards":   sh.Forwards,
			"samples":    sh.Samples,
			"e2e_p50_ms": sh.E2EP50Ms,
			"e2e_p99_ms": sh.E2EP99Ms,
		})
	}

	report := map[string]any{
		"benchmark":             "fleetobs overhead: tracing disabled vs armed vs full on the BENCH_fleet workload",
		"devices":               base.Summary.Devices,
		"sim_seconds":           base.Summary.SimSeconds,
		"publish_rate":          base.Summary.PublishRate,
		"num_cpu":               runtime.NumCPU(),
		"probe_pairs":           pairs,
		"traced_runs":           reps,
		"baseline_wall_sec":     baseWall.Seconds(),
		"probe_wall_sec":        probeWall.Seconds(),
		"probe_overhead_ratio":  overhead,
		"probe_sim_identical":   simIdentical,
		"traced_shards":         8,
		"traced_wall_sec":       tracedWall.Seconds(),
		"traced_overhead_ratio": tracedWall.Seconds() / baseWall.Seconds(),
		"traced_publishes":      o.TracedPublishes,
		"traced_delivered":      o.Delivered,
		"traced_lost":           o.Lost,
		"span_count":            o.SpanCount,
		"e2e_p50_ms":            o.E2EP50Ms,
		"e2e_p99_ms":            o.E2EP99Ms,
		"per_shard":             perShard,
		"note": "probe = tracer armed with negative sample rate (zero traces): its Summary must be " +
			"byte-identical to the baseline (zero simulated cycles) and its median per-pair wall-clock ratio " +
			"to the baseline within 1.10x; walls are medians. " +
			"traced = sample rate 1 across 8 cloud shards; wall-clock figures are machine-dependent, " +
			"the per-shard latency table is deterministic.",
	}
	writeBenchJSON(t, "BENCH_fleetobs.json", report)
	t.Logf("probe overhead %.3fx (base %.3fs), traced %.3fx, %d traced publishes p50 %.3fms p99 %.3fms",
		overhead, baseWall.Seconds(), tracedWall.Seconds()/baseWall.Seconds(),
		o.TracedPublishes, o.E2EP50Ms, o.E2EP99Ms)
}
