// Staged OTA rollout benchmark (ISSUE: ota).
//
// Two rollouts over a 24-device fleet are measured:
//
//  1. Healthy: 5% → 25% → 100% rings, health-gated widening. Records
//     rollout completion time (first offer → terminal complete) and the
//     fleet availability curve through the staged micro-reboots.
//  2. Poisoned: the same staging with a deliberately crashy update
//     agent. Records time-to-rollback (first offer → auto-rollback) and
//     the availability curve through crash storm and recovery.
//
// Both runs enforce the acceptance gates: the healthy rollout must
// complete, the poisoned one must roll back on its own, and the whole
// updated cohort must fork from exactly one cold boot of the new shape.
//
// TestBenchOTAJSON writes BENCH_ota.json.
package cheriot_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// otaBenchConfig is the benchmark rollout fleet: 24 devices, three
// rings (2, 6, then all 24 devices).
func otaBenchConfig(poisoned bool, duration time.Duration) fleet.Config {
	return fleet.Config{
		Devices:       24,
		Shards:        runtime.NumCPU(),
		Duration:      duration,
		PublishRate:   2,
		ArrivalSpread: time.Second,
		Seed:          1,
		Rollout: &ota.Plan{
			StartAt:        13 * time.Second,
			CheckEvery:     time.Second,
			Rings:          []float64{5, 25, 100},
			BringUp:        12 * time.Second,
			Bake:           2 * time.Second,
			Poisoned:       poisoned,
			CrashThreshold: 2,
		},
	}
}

func otaBenchRun(tb testing.TB, poisoned bool, duration time.Duration) (*fleet.Result, time.Duration) {
	tb.Helper()
	res, err := fleet.Run(otaBenchConfig(poisoned, duration))
	if err != nil {
		tb.Fatalf("fleet.Run: %v", err)
	}
	s := res.Summary
	if s.DeviceErrors != 0 || s.SetupFailures != 0 {
		tb.Fatalf("unhealthy fleet: %d errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
	}
	if s.Rollout == nil {
		tb.Fatal("no rollout in the summary")
	}
	return res, res.BootWall + res.RunWall
}

// simSec converts an absolute device cycle to simulated seconds.
func simSec(cycle uint64) float64 { return float64(cycle) / float64(hw.DefaultHz) }

// BenchmarkOTARollout reports the wall-clock cost of a full healthy
// rollout (every device micro-rebooted once into the forked template).
func BenchmarkOTARollout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, wall := otaBenchRun(b, false, 60*time.Second)
		b.ReportMetric(wall.Seconds(), "wall-sec")
		b.ReportMetric(simSec(res.Summary.Rollout.CompleteAtCycle), "complete-at-sim-sec")
	}
}

// TestBenchOTAJSON runs the healthy and poisoned rollouts, enforces the
// acceptance gates, and records completion time, time-to-rollback, and
// the availability curves in BENCH_ota.json.
func TestBenchOTAJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock figures are meaningless under the race detector")
	}
	const reps = 3

	var healthy, poisoned *fleet.Result
	var healthyWall, poisonedWall time.Duration
	for i := 0; i < reps; i++ {
		r, w := otaBenchRun(t, false, 60*time.Second)
		if healthy == nil || w < healthyWall {
			healthy, healthyWall = r, w
		}
		r, w = otaBenchRun(t, true, 40*time.Second)
		if poisoned == nil || w < poisonedWall {
			poisoned, poisonedWall = r, w
		}
	}

	hs, ps := healthy.Summary, poisoned.Summary
	hro, pro := hs.Rollout, ps.Rollout

	// Acceptance gates. Healthy: terminal complete, whole fleet updated,
	// exactly one cold boot for the new shape however many devices swap.
	if hro.Terminal != ota.StateComplete || hro.OnNew != hs.Devices {
		t.Fatalf("healthy rollout did not complete: %+v", hro)
	}
	if st := healthy.Snapshot; st == nil || st.ColdBoots != 2 {
		t.Fatalf("healthy rollout cold boots = %+v, want exactly 2 (boot shape + update shape)", healthy.Snapshot)
	}
	// Poisoned: rolled back without intervention, everyone back on the
	// old firmware, the crash evidence recorded.
	if pro.Terminal != ota.StateRolledBack || pro.OnNew != 0 || pro.OnOld != ps.Devices {
		t.Fatalf("poisoned rollout did not roll back cleanly: %+v", pro)
	}
	if pro.CohortCrashes <= poisoned.Config.Rollout.CrashThreshold {
		t.Fatalf("poisoned cohort crashes %d not above threshold %d", pro.CohortCrashes, poisoned.Config.Rollout.CrashThreshold)
	}

	firstOffer := hro.Rings[0].OfferedAtCycle
	completion := simSec(hro.CompleteAtCycle) - simSec(firstOffer)
	timeToRollback := simSec(pro.RollbackAtCycle) - simSec(pro.Rings[0].OfferedAtCycle)

	rings := make([]map[string]any, 0, len(hro.Rings))
	for _, r := range hro.Rings {
		rings = append(rings, map[string]any{
			"ring":            r.Ring,
			"percent":         r.Percent,
			"devices":         r.Devices,
			"offered_at_sec":  simSec(r.OfferedAtCycle),
			"advanced_at_sec": simSec(r.AdvancedAtCycle),
		})
	}

	report := map[string]any{
		"benchmark":   "staged OTA rollout: canary rings, health-gated widening, crash-triggered auto-rollback",
		"devices":     hs.Devices,
		"rings":       []float64{5, 25, 100},
		"bringup_sec": 12, "bake_sec": 2, "check_every_sec": 1,
		"num_cpu": runtime.NumCPU(),
		"healthy": map[string]any{
			"wall_sec":                healthyWall.Seconds(),
			"sim_seconds":             hs.SimSeconds,
			"first_offer_sec":         simSec(firstOffer),
			"complete_at_sec":         simSec(hro.CompleteAtCycle),
			"rollout_completion_sec":  completion,
			"ring_timeline":           rings,
			"offers_delivered":        hro.OffersDelivered,
			"cold_boots":              healthy.Snapshot.ColdBoots,
			"forks":                   healthy.Snapshot.Forks,
			"availability_per_second": hs.AvailabilityPerSecond,
			"cohort_crashes":          hro.CohortCrashes,
			"cycle_attribution_exact": hs.CycleSumExact,
		},
		"poisoned": map[string]any{
			"wall_sec":                poisonedWall.Seconds(),
			"sim_seconds":             ps.SimSeconds,
			"first_offer_sec":         simSec(pro.Rings[0].OfferedAtCycle),
			"rollback_at_sec":         simSec(pro.RollbackAtCycle),
			"time_to_rollback_sec":    timeToRollback,
			"cohort_crashes":          pro.CohortCrashes,
			"crash_threshold":         pro.CrashThreshold,
			"devices_rolled_back":     pro.RolledBack,
			"micro_reboots":           ps.Reboots,
			"availability_per_second": ps.AvailabilityPerSecond,
			"cycle_attribution_exact": ps.CycleSumExact,
		},
		"note": "completion/rollback times are simulated-clock and deterministic for the seed; " +
			"wall-clock figures are machine-dependent. The updated cohort forks its micro-reboots " +
			"from one cold boot of the new firmware shape (cold_boots stays 2 at any fleet size). " +
			"availability_per_second is devices publishing per simulated second: the staged dips " +
			"are the rings rebooting, the poisoned curve shows the canary dip and recovery.",
	}
	writeBenchJSON(t, "BENCH_ota.json", report)
	t.Logf("healthy: completion %.0fs sim (%.2fs wall); poisoned: rollback after %.0fs sim, %d crashes (%.2fs wall)",
		completion, healthyWall.Seconds(), timeToRollback, pro.CohortCrashes, poisonedWall.Seconds())
}
