// Sharded-cloud control-plane benchmark.
//
// Measures fleet publish throughput (publishes per wall-clock second)
// across a grid of broker shard counts and fleet sizes. A publish visits
// only its topic's subscribers, through the one subscription index kept
// by the shard that owns the topic, so the shard count changes how
// broker dispatch is split across locks, not how much work a publish
// does. The simulated outcome (publish counts, cycle attribution) is
// identical across shard counts; only wall clock changes.
//
// TestBenchCloudJSON records the grid plus the acceptance pair (1 vs 8
// shards at the largest fleet) into BENCH_cloud.json; it runs them only
// under -update (`make bench-json`), and a plain run checks only that
// the publish count does not depend on the shard count, on 64 devices.
// It asserts no wall-clock ratio. That a publish visits exactly its topic's live
// subscribers is checked deterministically instead, by
// TestBrokerIndexHoldsExactlyLiveSubscribers (internal/netsim) and
// TestPlaneIndexHoldsExactlyLiveSubscribers (internal/cloud).
package cheriot_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
)

// cloudBenchConfig is the scaling workload: every device TLS-connects
// (~10 simulated seconds) and then publishes at 25 Hz.
func cloudBenchConfig(devices, cloudShards int, rate float64, spread time.Duration) fleet.Config {
	return fleet.Config{
		Devices:       devices,
		CloudShards:   cloudShards,
		Duration:      14 * time.Second,
		PublishRate:   rate,
		ArrivalSpread: spread,
		Seed:          1,
		SkipAudit:     true,
	}
}

// cloudBenchRun runs one cell of the grid and returns the result plus
// total wall time (boot + run). Collecting the previous fleet's garbage
// first keeps cells comparable: without it, heap state inherited from
// earlier cells skews later wall clocks by tens of percent.
func cloudBenchRun(tb testing.TB, cfg fleet.Config) (*fleet.Result, time.Duration) {
	tb.Helper()
	runtime.GC()
	debug.FreeOSMemory()
	res, err := fleet.Run(cfg)
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

// TestBenchCloudJSON checks that the publish count does not depend on the
// shard count and, under -update, sweeps shards x devices and emits
// BENCH_cloud.json. The sweep is skipped under the race detector: the
// grid's wall-clock numbers would be meaningless and the large fleets
// slow.
func TestBenchCloudJSON(t *testing.T) {
	if !*update {
		// Tier-1 keeps the deterministic half at toy size.
		res1, _ := cloudBenchRun(t, cloudBenchConfig(64, 1, 25, time.Second))
		res8, _ := cloudBenchRun(t, cloudBenchConfig(64, 8, 25, time.Second))
		if res1.Summary.Publishes != res8.Summary.Publishes {
			t.Errorf("64 devices: %d publishes at 1 shard, %d at 8 (shard-count independent)",
				res1.Summary.Publishes, res8.Summary.Publishes)
		}
		return
	}
	if raceEnabled {
		t.Skip("benchmark grid skipped under -race (wall clock is meaningless)")
	}

	type row struct {
		Devices             int     `json:"devices"`
		Shards              int     `json:"shards"`
		Publishes           uint64  `json:"publishes"`
		WallSec             float64 `json:"wall_sec"`
		PublishesPerWallSec float64 `json:"publishes_per_wall_sec"`
		SpeedupVs1Shard     float64 `json:"speedup_vs_1_shard"`
	}

	// Acceptance pair first, on the cleanest heap: 1 vs 8 shards at the
	// largest fleet. Best-of-2 per mode damps transient host load. The
	// speedup is recorded in BENCH_cloud.json, not asserted.
	const accDevices = 2048
	const accReps = 2
	accCfg := func(shards int) fleet.Config {
		return cloudBenchConfig(accDevices, shards, 40, 500*time.Millisecond)
	}
	best := func(cfg fleet.Config) (*fleet.Result, time.Duration) {
		var res *fleet.Result
		var wall time.Duration
		for i := 0; i < accReps; i++ {
			r, w := cloudBenchRun(t, cfg)
			if res == nil || w < wall {
				res, wall = r, w
			}
		}
		return res, wall
	}
	res1, wall1 := best(accCfg(1))
	res8, wall8 := best(accCfg(8))
	if res1.Summary.Publishes != res8.Summary.Publishes {
		t.Errorf("acceptance publishes differ: %d (1 shard) vs %d (8 shards)",
			res1.Summary.Publishes, res8.Summary.Publishes)
	}
	pub1 := float64(res1.Summary.Publishes) / wall1.Seconds()
	pub8 := float64(res8.Summary.Publishes) / wall8.Seconds()
	speedup := pub8 / pub1
	t.Logf("acceptance %d devices: 1 shard %.2fs (%.1f pub/s) vs 8 shards %.2fs (%.1f pub/s): %.2fx",
		accDevices, wall1.Seconds(), pub1, wall8.Seconds(), pub8, speedup)

	var rows []row
	for _, devices := range []int{64, 256, 1024} {
		var oneShardWall float64
		var oneShardPublishes uint64
		for _, shards := range []int{1, 2, 4, 8} {
			res, wall := cloudBenchRun(t, cloudBenchConfig(devices, shards, 25, time.Second))
			r := row{
				Devices:             devices,
				Shards:              shards,
				Publishes:           res.Summary.Publishes,
				WallSec:             wall.Seconds(),
				PublishesPerWallSec: float64(res.Summary.Publishes) / wall.Seconds(),
			}
			if shards == 1 {
				oneShardWall, oneShardPublishes = r.WallSec, r.Publishes
			}
			r.SpeedupVs1Shard = oneShardWall / r.WallSec
			rows = append(rows, r)
			t.Logf("devices %4d, shards %d: %6.2fs wall, %8.1f publishes/sec (%.2fx)",
				devices, shards, r.WallSec, r.PublishesPerWallSec, r.SpeedupVs1Shard)
			// The simulated outcome must not depend on the shard count.
			if r.Publishes != oneShardPublishes {
				t.Errorf("devices %d, shards %d: %d publishes, want %d (shard-count independent)",
					devices, shards, r.Publishes, oneShardPublishes)
			}
		}
	}

	report := map[string]any{
		"benchmark": "sharded cloud control plane: fleet publish throughput vs broker shard count",
		"workload": fmt.Sprintf("14 sim-seconds, 25 publishes/sim-second/device, 1s arrival spread"+
			" (acceptance pair: %d devices, 40/sim-second, 500ms spread)", accDevices),
		"num_cpu": runtime.NumCPU(),
		"rows":    rows,
		"acceptance": map[string]any{
			"devices":                 accDevices,
			"runs_per_mode":           accReps,
			"publishes":               res1.Summary.Publishes,
			"one_shard_wall_sec":      wall1.Seconds(),
			"eight_shard_wall_sec":    wall8.Seconds(),
			"one_shard_pub_per_sec":   pub1,
			"eight_shard_pub_per_sec": pub8,
			"speedup":                 speedup,
		},
		"note": "wall-clock figures are machine-dependent; simulated results are identical across " +
			"shard counts. A publish visits only its topic's subscribers whatever the shard count, " +
			"so shards split broker dispatch across locks but do not shrink a publish's work. " +
			"Lockstep vs parallel byte-identical summaries under cloud fan-out are asserted by " +
			"TestFleetFanoutDeterminism in internal/fleet.",
	}
	writeBenchJSON(t, "BENCH_cloud.json", report)
}
