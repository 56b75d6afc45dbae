// Fleet-throughput benchmark (ISSUE: fleet simulation subsystem).
//
// Measures how many simulated devices (full firmware: loader boot,
// netstack, TLS+MQTT session, steady publish loop) the simulator pushes
// through per wall-clock second, serial (1 shard) versus parallel
// (NumCPU shards). The simulated results are identical in both modes —
// devices are independent — so the comparison isolates the worker pool.
//
// TestBenchFleetJSON records both into BENCH_fleet.json under -update
// (`make bench-json`); a plain run keeps only the deterministic checks,
// at 64 devices.
package cheriot_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
)

// fleetBenchConfig is the benchmark workload: each device DHCPs, syncs,
// resolves, TLS-connects (~10 simulated seconds), then publishes at 2 Hz
// for the remaining horizon.
func fleetBenchConfig(devices, shards int) fleet.Config {
	return fleet.Config{
		Devices:       devices,
		Shards:        shards,
		Duration:      12 * time.Second,
		PublishRate:   2,
		ArrivalSpread: time.Second,
		Seed:          1,
	}
}

// fleetBenchRun runs one fleet and returns the result plus total wall
// time (boot + run).
func fleetBenchRun(tb testing.TB, devices, shards int) (*fleet.Result, time.Duration) {
	tb.Helper()
	res, err := fleet.Run(fleetBenchConfig(devices, shards))
	if err != nil {
		tb.Fatalf("fleet.Run: %v", err)
	}
	s := res.Summary
	if s.DeviceErrors != 0 || s.SetupFailures != 0 || s.CapabilityFaults != 0 {
		tb.Fatalf("unhealthy fleet: %d errors, %d setup failures, %d capability faults",
			s.DeviceErrors, s.SetupFailures, s.CapabilityFaults)
	}
	return res, res.BootWall + res.RunWall
}

// BenchmarkFleetThroughput reports devices and publishes per wall-clock
// second for serial and parallel sharding.
func BenchmarkFleetThroughput(b *testing.B) {
	const devices = 64
	shardCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var devPerSec, pubPerSec float64
			for i := 0; i < b.N; i++ {
				res, wall := fleetBenchRun(b, devices, shards)
				devPerSec = float64(devices) / wall.Seconds()
				pubPerSec = float64(res.Summary.Publishes) / wall.Seconds()
			}
			b.ReportMetric(devPerSec, "devices/sec")
			b.ReportMetric(pubPerSec, "publishes/sec")
			printOnce(fmt.Sprintf("fleetbench-%d", shards),
				fmt.Sprintf("fleet %3d devices, %2d shards: %8.1f devices/sec, %9.1f publishes/sec\n",
					devices, shards, devPerSec, pubPerSec))
		})
	}
}

// spinUp boots a fleet of the given size with a minimal horizon so the
// boot phase dominates, and returns the result (with the host phase
// split armed). cold forces every device through the full loader;
// otherwise one device per firmware shape cold-boots and the rest fork
// from its snapshot template.
func spinUp(tb testing.TB, devices int, cold bool) *fleet.Result {
	tb.Helper()
	res, err := fleet.Run(fleet.Config{
		Devices:    devices,
		Duration:   time.Millisecond,
		Seed:       1,
		HostProf:   true,
		NoSnapshot: cold,
	})
	if err != nil {
		tb.Fatalf("fleet.Run(%d devices, cold=%v): %v", devices, cold, err)
	}
	s := res.Summary
	if s.DeviceErrors != 0 || s.SetupFailures != 0 {
		tb.Fatalf("unhealthy spin-up: %d errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
	}
	return res
}

// perDeviceSec extracts a boot sub-phase's average per-device seconds
// from the host profile.
func perDeviceSec(tb testing.TB, res *fleet.Result, phase string) float64 {
	tb.Helper()
	p := res.HostProf.Phase(phase)
	if p.Calls == 0 {
		tb.Fatalf("host phase %q recorded no devices", phase)
	}
	return p.WallSec / float64(p.Calls)
}

// TestBenchFleetJSON checks that the simulated outcome is identical
// across shard counts and that a forked spin-up forks every device. Under -update it also measures serial vs parallel fleet
// throughput plus cold vs snapshot-forked spin-up, and emits
// BENCH_fleet.json: on multi-core hosts the parallel mode must also win
// on wall-clock publishes/sec, and at 10k devices the snapshot fork must
// beat the full loader on both whole-boot wall clock and per-device
// System construction (see spinup_note in the JSON for why the 10x design
// target is out of reach on this workload).
func TestBenchFleetJSON(t *testing.T) {
	const devices = 64
	const reps = 2

	if !*update {
		// Tier-1 keeps the deterministic half at toy size.
		serial, _ := fleetBenchRun(t, devices, 1)
		parallel, _ := fleetBenchRun(t, devices, runtime.NumCPU())
		if serial.Summary.Publishes != parallel.Summary.Publishes {
			t.Errorf("simulated publishes differ across shard counts: %d (1 shard) vs %d (%d shards)",
				serial.Summary.Publishes, parallel.Summary.Publishes, runtime.NumCPU())
		}
		if res := spinUp(t, devices, false); res.Snapshot == nil || res.Snapshot.Forks != devices {
			t.Errorf("forked spin-up at %d devices did not fork the fleet: %+v", devices, res.Snapshot)
		}
		return
	}

	best := func(shards int) (*fleet.Result, time.Duration) {
		var res *fleet.Result
		var wall time.Duration
		for i := 0; i < reps; i++ {
			r, w := fleetBenchRun(t, devices, shards)
			if res == nil || w < wall {
				res, wall = r, w
			}
		}
		return res, wall
	}

	serial, serialWall := best(1)
	parallel, parallelWall := best(runtime.NumCPU())

	if serial.Summary.Publishes != parallel.Summary.Publishes {
		t.Fatalf("simulated publishes differ across shard counts: %d (1 shard) vs %d (%d shards)",
			serial.Summary.Publishes, parallel.Summary.Publishes, runtime.NumCPU())
	}

	serialPub := float64(serial.Summary.Publishes) / serialWall.Seconds()
	parallelPub := float64(parallel.Summary.Publishes) / parallelWall.Seconds()
	speedup := serialWall.Seconds() / parallelWall.Seconds()
	if runtime.NumCPU() > 1 && parallelPub <= serialPub {
		t.Errorf("parallel (%d shards, %.1f publishes/sec) did not beat serial (%.1f publishes/sec)",
			runtime.NumCPU(), parallelPub, serialPub)
	}

	// Spin-up scaling: cold (full loader per device) vs forked (one
	// launch capture per firmware shape, every device forked from it). The gated
	// figure is System construction per device — the sub-phase the fork
	// replaces — at the 10k fleet; whole-boot wall includes the parts of
	// buildDevice that are identical either way. Each measurement starts
	// after a GC so the previous run's fleet is dead, but the freed pages
	// stay resident (no FreeOSMemory): scavenged pages would make every
	// fresh SRAM allocation re-fault its pages, a penalty that lands
	// almost entirely on the fork path and says nothing about it.
	type spinRow struct {
		Devices          int     `json:"devices"`
		ColdBootSec      float64 `json:"cold_boot_wall_sec"`
		ForkedBootSec    float64 `json:"forked_boot_wall_sec"`
		BootSpeedup      float64 `json:"boot_speedup"`
		ColdPerDevUsec   float64 `json:"cold_construct_usec_per_device"`
		ForkPerDevUsec   float64 `json:"fork_construct_usec_per_device"`
		ConstructSpeedup float64 `json:"construct_speedup"`
	}
	measure := func(n int, cold bool) (boot, perDev float64) {
		runtime.GC()
		res := spinUp(t, n, cold)
		phase := "boot/fork"
		if cold {
			phase = "boot/cold"
		} else if res.Snapshot == nil || res.Snapshot.Forks != n {
			t.Fatalf("forked spin-up at %d devices did not fork the fleet: %+v", n, res.Snapshot)
		}
		// Return scalars only: retaining the Result would keep the whole
		// fleet (gigabytes at 10k devices) live through later runs.
		return res.BootWall.Seconds(), perDeviceSec(t, res, phase)
	}
	var spin []spinRow
	var gate spinRow
	for _, n := range []int{1000, 4000, 10000} {
		// Best of reps, like the throughput figures: the gate judges the
		// machine's capability, not a scheduler hiccup.
		r := 1
		if n == 10000 {
			r = reps
		}
		row := spinRow{Devices: n}
		for i := 0; i < r; i++ {
			if b, p := measure(n, true); i == 0 || b < row.ColdBootSec {
				row.ColdBootSec, row.ColdPerDevUsec = b, p*1e6
			}
			if b, p := measure(n, false); i == 0 || b < row.ForkedBootSec {
				row.ForkedBootSec, row.ForkPerDevUsec = b, p*1e6
			}
		}
		row.BootSpeedup = row.ColdBootSec / row.ForkedBootSec
		row.ConstructSpeedup = row.ColdPerDevUsec / row.ForkPerDevUsec
		spin = append(spin, row)
		if n == 10000 {
			gate = row
		}
		t.Logf("spin-up %5d devices: cold %.3fs, forked %.3fs (%.1fx); construct %.1fµs vs %.1fµs per device (%.1fx)",
			n, row.ColdBootSec, row.ForkedBootSec, row.BootSpeedup,
			row.ColdPerDevUsec, row.ForkPerDevUsec, row.ConstructSpeedup)
	}
	// The regression gates: at 10k devices the snapshot fork must beat
	// the full loader on per-device System construction (with margin for
	// the host noise of a shared single-CPU runner) and on the whole boot
	// phase outright. The design target was 10x; the measured ceiling on
	// this workload is ~3-4x. The fork skips the linker/loader CPU work
	// and shares the template's SRAM chunks copy-on-write, so it pays
	// only for the chunks it writes; what remains is building each
	// device's kernel, compartment, thread and allocator objects (about
	// 70 host allocations per fork), which the loader path builds too
	// (see spinup_note).
	if gate.ConstructSpeedup < 1.25 {
		t.Errorf("snapshot fork construct speedup at 10k devices is %.2fx, want >= 1.25x (%.1fµs cold vs %.1fµs fork)",
			gate.ConstructSpeedup, gate.ColdPerDevUsec, gate.ForkPerDevUsec)
	}
	if gate.ForkedBootSec >= gate.ColdBootSec {
		t.Errorf("forked spin-up at 10k devices regressed: %.3fs forked vs %.3fs cold",
			gate.ForkedBootSec, gate.ColdBootSec)
	}

	report := map[string]any{
		"benchmark":                       "fleet throughput: N full-firmware devices against one shared cloud",
		"devices":                         devices,
		"sim_seconds":                     serial.Summary.SimSeconds,
		"publish_rate":                    serial.Summary.PublishRate,
		"publishes":                       serial.Summary.Publishes,
		"num_cpu":                         runtime.NumCPU(),
		"runs_per_mode":                   reps,
		"serial_wall_sec":                 serialWall.Seconds(),
		"parallel_shards":                 runtime.NumCPU(),
		"parallel_wall_sec":               parallelWall.Seconds(),
		"serial_devices_per_sec":          float64(devices) / serialWall.Seconds(),
		"parallel_devices_per_sec":        float64(devices) / parallelWall.Seconds(),
		"serial_publishes_per_sec":        serialPub,
		"parallel_publishes_per_sec":      parallelPub,
		"parallel_speedup":                speedup,
		"parallel_beats_serial":           parallelPub > serialPub,
		"spinup":                          spin,
		"spinup_target_construct_speedup": 10,
		"spinup_note": "boot-phase wall clock for fleet spin-up (1ms horizon), cold loader vs snapshot " +
			"fork; *_construct_usec_per_device is the System-construction sub-phase (HostProf boot/cold " +
			"vs boot/fork) the fork replaces. The 10x design target is not met on this workload: the " +
			"fork eliminates the linker/loader CPU work and shares the template's SRAM chunks " +
			"copy-on-write, but still builds each device's kernel, compartment, thread and allocator " +
			"objects (about 70 host allocations per fork), which the cold path builds too — " +
			"measured speedup is ~3-4x depending on heap state, not 10x. Regression gate: " +
			"construct_speedup >= 1.25 and forked boot wall < cold at 10k devices.",
		"note": "wall-clock figures are machine-dependent; simulated results (publishes, cycle " +
			"attribution) are identical across shard counts because devices are independent. On a " +
			"single-CPU host the parallel mode cannot beat serial and parallel_beats_serial is " +
			"expected to be false.",
	}
	writeBenchJSON(t, "BENCH_fleet.json", report)
	t.Logf("serial %.2fs vs parallel %.2fs (%d shards): %.2fx, %.1f vs %.1f publishes/sec",
		serialWall.Seconds(), parallelWall.Seconds(), runtime.NumCPU(), speedup, serialPub, parallelPub)
}
