package main

// metric is one named measurement the benchmark reports. BENCHMARK.json at
// the repository root lists the same metrics; TestBenchmarkJSONMatches
// keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a cheriot-fleet or cheriot-campaign user pays
// for, reported on every workload as the median of the untraced reps,
// times at the committed reference speed (hostref.go). Bound is the share
// of the parent commit's median by which a metric may worsen before a
// change counts as a regression.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"device_simsec_per_s", "devsim-s/s", "higher", 0.25},
	{"alloc_mib", "MiB", "lower", 0.02},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// layers are the internal/ packages a CPU-profile sample can be charged
// to. Samples in an internal package missing from this list count as
// cpu.other_share.
var layers = []string{
	"alloc", "api", "audit", "cap", "cloud", "compartment", "compat", "core",
	"firmware", "fleet", "fleetcli", "fleetobs", "flightrec", "hw", "iotapp",
	"jsvm", "libs", "loader", "mem", "netproto", "netsim", "netstack", "ota",
	"prof", "scenario", "sched", "snapshot", "switcher", "telemetry", "token",
}

// workCounts are the deterministic per-layer work counters read from the
// merged Summary.Telemetry: metric name, telemetry compartment, counter.
var workCounts = []struct{ Name, Comp, Counter string }{
	{"switcher.compartment_calls", compSwitcher, "compartment_calls"},
	{"switcher.context_switches", compSwitcher, "context_switches"},
	{"sched.futex_waits", compSched, "futex_waits"},
	{"sched.preemptions", compSchedDomain, "preemptions"},
	{"alloc.mallocs", compAlloc, "mallocs"},
	{"alloc.revoker_sweeps", compAlloc, "revoker_sweeps"},
	{"tcpip.rx_frames", compTCPIP, "rx_frames"},
	{"tcpip.tx_segments", compTCPIP, "tx_segments"},
	{"cloud.publishes", compCloud, "publishes"},
}

// perLayer lists the traced-run metrics: workload-specific rates that do
// not exist on every workload (0 where they do not apply), the host phase
// split, CPU-profile shares per layer, Go runtime deltas, deterministic
// work counts, useful-to-attempted ratios with their bases, the
// layer-sum model, and the probe table.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{Name: "devices_per_s", Unit: "1/s", Better: "higher"},
		{Name: "publishes_per_s", Unit: "1/s", Better: "higher"},
		{Name: "deliveries_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cells_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cell_p50_s", Unit: "s", Better: "lower"},
		{Name: "cell_p90_s", Unit: "s", Better: "lower"},
		{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
		{Name: "host.raw_wall_s", Unit: "s", Better: "lower"},
		{Name: "host.raw_cpu_s", Unit: "s", Better: "lower"},
		{Name: "host.ref_loop_s", Unit: "s", Better: "lower"},
		{Name: "host.boot_s", Unit: "s", Better: "lower"},
		{Name: "host.step_s", Unit: "s", Better: "lower"},
		{Name: "host.pump_s", Unit: "s", Better: "lower"},
		{Name: "host.merge_s", Unit: "s", Better: "lower"},
		{Name: "host.boot_fork_us_per_device", Unit: "us", Better: "lower"},
		{Name: "host.cpu_ns_per_call", Unit: "ns", Better: "lower"},
	}
	for _, l := range layers {
		ms = append(ms, metric{Name: "cpu." + l + "_share", Unit: "share", Better: "lower"})
	}
	ms = append(ms,
		metric{Name: "cpu.other_share", Unit: "share", Better: "lower"},
		metric{Name: "cpu.bench_share", Unit: "share", Better: "lower"},
		metric{Name: "runtime.gc_share", Unit: "share", Better: "lower"},
		metric{Name: "runtime.sched_share", Unit: "share", Better: "lower"},
		metric{Name: "runtime.chan_share", Unit: "share", Better: "lower"},
		metric{Name: "go.gc_cpu_share", Unit: "share", Better: "lower"},
		metric{Name: "go.sched_latency_p50_us", Unit: "us", Better: "lower"},
		metric{Name: "go.sched_latency_p99_us", Unit: "us", Better: "lower"},
		metric{Name: "go.mutex_wait_ms", Unit: "ms", Better: "lower"},
		metric{Name: "go.alloc_objects", Unit: "count", Better: "lower"},
	)
	for _, c := range workCounts {
		ms = append(ms, metric{Name: c.Name, Unit: "count", Better: "lower"})
	}
	ms = append(ms,
		metric{Name: "snapshot.fork_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "snapshot.fork_base", Unit: "count", Better: "higher"},
		metric{Name: "cloud.fanout_delivered_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "cloud.fanout_base", Unit: "count", Better: "higher"},
		metric{Name: "model.explained_share", Unit: "share", Better: "higher"},
		metric{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	)
	for _, p := range probes {
		ms = append(ms,
			metric{Name: p.Name + "_" + p.Unit, Unit: p.Unit, Better: "lower"},
			metric{Name: p.Name + "_allocs", Unit: "allocs/op", Better: "lower"})
		if p.Unit == "us" { // the heavy probes, where memory is the cost
			ms = append(ms, metric{Name: p.Name + "_kib", Unit: "KiB/op", Better: "lower"})
		}
	}
	for _, p := range probes {
		if p.Simulated {
			ms = append(ms, metric{Name: p.Name + "_simcycles", Unit: "simcycles/op", Better: "lower"})
		}
	}
	return ms
}
