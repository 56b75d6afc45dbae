package fleet

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/ota"
)

// rolloutConfig is the shared test fleet: 6 devices, a 2-device canary
// ring (25%), then everyone. StartAt must exceed the ~11 s bring-up so
// the canary devices hold live sessions when the offer is pushed.
func rolloutConfig(poisoned bool, duration time.Duration) Config {
	return Config{
		Devices:       6,
		Lockstep:      true,
		Duration:      duration,
		ArrivalSpread: 500 * time.Millisecond,
		PublishRate:   2,
		Seed:          1,
		Rollout: &ota.Plan{
			StartAt:        13 * time.Second,
			CheckEvery:     time.Second,
			Rings:          []float64{25, 100},
			BringUp:        12 * time.Second,
			Bake:           2 * time.Second,
			HealthSLO:      "availability>=0.5",
			CrashThreshold: 2,
			Poisoned:       poisoned,
		},
	}
}

// TestRolloutHealthyCompletes proves the tentpole's happy path end to
// end: canary offer, health-gated widening, completion — and that every
// updated device forked from exactly one cold boot of the new shape.
func TestRolloutHealthyCompletes(t *testing.T) {
	res, err := Run(rolloutConfig(false, 45*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.DeviceErrors > 0 || s.SetupFailures > 0 {
		t.Fatalf("device errors %d, setup failures %d", s.DeviceErrors, s.SetupFailures)
	}
	ro := s.Rollout
	if ro == nil {
		t.Fatal("no rollout status in summary")
	}
	if ro.Terminal != ota.StateComplete {
		t.Fatalf("terminal %q, want complete; status %+v", ro.Terminal, ro)
	}
	if ro.OnNew != s.Devices || ro.OnOld != 0 || ro.Updated != s.Devices {
		t.Fatalf("firmware split: on_new %d on_old %d updated %d", ro.OnNew, ro.OnOld, ro.Updated)
	}
	if ro.CompleteAtCycle == 0 {
		t.Fatal("no completion timestamp")
	}
	bringBake := durationCycles(res.Config.Rollout.BringUp) + durationCycles(res.Config.Rollout.Bake)
	for i, ring := range ro.Rings {
		if ring.OfferedAtCycle == 0 || ring.AdvancedAtCycle == 0 {
			t.Fatalf("ring %d missing timestamps: %+v", i, ring)
		}
		if ring.AdvancedAtCycle < ring.OfferedAtCycle+bringBake {
			t.Fatalf("ring %d advanced before bring-up+bake aged: offered %d advanced %d",
				i, ring.OfferedAtCycle, ring.AdvancedAtCycle)
		}
		if ring.Verdict == nil || !ring.Verdict.Pass {
			t.Fatalf("ring %d advanced without a passing verdict: %+v", i, ring.Verdict)
		}
	}
	if ro.CohortCrashes != 0 {
		t.Fatalf("healthy rollout recorded %d cohort crashes", ro.CohortCrashes)
	}
	if ro.OffersDelivered == 0 {
		t.Fatal("no update offers were delivered over MQTT")
	}
	if !s.CycleSumExact {
		t.Fatal("cycle-sum invariant broken across firmware swaps")
	}

	// Exactly one cold boot per shape, however many devices swap: the
	// boot image template plus the updated image template.
	st := res.Snapshot
	if st == nil {
		t.Fatal("no snapshot stats")
	}
	if st.ColdBoots != 2 || st.Templates != 2 {
		t.Fatalf("cold boots %d templates %d, want 2/2; stats %+v", st.ColdBoots, st.Templates, st)
	}
	var otaAlias, bootAlias int
	for _, a := range st.Aliases {
		switch a.Alias {
		case FirmwareGo:
			bootAlias = a.Misses
		case FirmwareGo + otaAliasSuffix:
			otaAlias = a.Misses
		}
	}
	if bootAlias != 1 || otaAlias != 1 {
		t.Fatalf("per-alias cold boots: boot %d ota %d, want 1/1; %+v", bootAlias, otaAlias, st.Aliases)
	}
}

// TestRolloutLockstepMatchesParallel is the determinism proof: the
// whole Summary — per-ring offer/advance cycle timestamps included —
// must be byte-identical between the lockstep and worker-pool modes
// and across repeated runs at the same seed.
func TestRolloutLockstepMatchesParallel(t *testing.T) {
	cfg := rolloutConfig(false, 45*time.Second)
	lock, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Lockstep = false
	par.Shards = 3
	parRes, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(lock.Summary)
	b, _ := json.Marshal(parRes.Summary)
	// Shards and Lockstep describe the run mode; mask them the way the
	// ported equivalence tests do, by comparing mode-normalized copies.
	ls, ps := lock.Summary, parRes.Summary
	ls.Shards, ps.Shards = 0, 0
	ls.Lockstep, ps.Lockstep = false, false
	a, _ = json.Marshal(ls)
	b, _ = json.Marshal(ps)
	if string(a) != string(b) {
		t.Fatalf("lockstep and parallel rollout summaries differ:\n%s\n%s", a, b)
	}

	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(lock.Summary)
	d, _ := json.Marshal(again.Summary)
	if string(c) != string(d) {
		t.Fatalf("repeated lockstep rollout summaries differ:\n%s\n%s", c, d)
	}
}

// TestRolloutPoisonedRollsBack proves the auto-rollback: a deliberately
// crashy update must be detected by the crash-report threshold and
// every updated device returned to the old firmware, with zero manual
// intervention.
func TestRolloutPoisonedRollsBack(t *testing.T) {
	res, err := Run(rolloutConfig(true, 40*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	ro := s.Rollout
	if ro == nil {
		t.Fatal("no rollout status")
	}
	if ro.Terminal != ota.StateRolledBack {
		t.Fatalf("terminal %q, want rolled_back; status %+v", ro.Terminal, ro)
	}
	if ro.OnNew != 0 || ro.OnOld != s.Devices {
		t.Fatalf("final firmware split: on_new %d on_old %d, want 0/%d", ro.OnNew, ro.OnOld, s.Devices)
	}
	if ro.RolledBack == 0 || ro.RollbackAtCycle == 0 {
		t.Fatalf("rollback accounting: rolled_back %d at cycle %d", ro.RolledBack, ro.RollbackAtCycle)
	}
	if ro.CohortCrashes <= res.Config.Rollout.CrashThreshold {
		t.Fatalf("cohort crashes %d not above threshold %d", ro.CohortCrashes, res.Config.Rollout.CrashThreshold)
	}
	if s.CrashReports == 0 || s.CrashDevices == 0 {
		t.Fatal("no flight-recorder crash reports recorded fleet-wide")
	}
	// Every crash micro-rebooted the update agent before the rollback
	// micro-rebooted the whole cohort's firmware.
	if s.Reboots < int(ro.CohortCrashes) {
		t.Fatalf("reboots %d < cohort crashes %d", s.Reboots, ro.CohortCrashes)
	}
	if !s.CycleSumExact {
		t.Fatal("cycle-sum invariant broken across rollback swaps")
	}
	// The rolled-back devices must come back up: they reconnect and
	// publish on the old firmware before the horizon.
	if s.DeviceErrors > 0 {
		t.Fatalf("%d devices failed", s.DeviceErrors)
	}
	// Rollback forks come from the boot template too: still exactly one
	// cold boot per shape.
	if st := res.Snapshot; st.ColdBoots != 2 {
		t.Fatalf("cold boots %d, want 2; %+v", st.ColdBoots, st)
	}
}

// TestRolloutRejectsNoSnapshot pins the contract: swaps fork from
// templates, so a rollout cannot run with snapshot boot disabled.
func TestRolloutRejectsNoSnapshot(t *testing.T) {
	cfg := rolloutConfig(false, 20*time.Second)
	cfg.NoSnapshot = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("rollout with NoSnapshot did not error")
	}
	cfg = rolloutConfig(false, 20*time.Second)
	cfg.Profiles = []Profile{{Name: "js", Firmware: FirmwareJS}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("rollout over a jsvm profile did not error")
	}
}

// swapPinConfig is a rollout of a healthy image that every configured fault
// crosses: link loss and jitter, a broker partition that opens after
// the canary swap, clock skew, and a ping of death after both rings
// have been offered. Its crashes in the updated cohort trigger the
// rollback at 31 s, so every device lives through three incarnations
// (boot image, update, rollback).
func swapPinConfig() Config {
	return Config{
		Devices:        8,
		CloudShards:    2,
		Lockstep:       true,
		Duration:       46 * time.Second,
		ArrivalSpread:  500 * time.Millisecond,
		PublishRate:    2,
		Seed:           1,
		DropRate:       0.002,
		JitterCycles:   5000,
		FlightRecorder: 256,
		PingOfDeathAt:  30 * time.Second,
		PartitionAt:    16 * time.Second,
		ClockSkewMax:   500 * time.Millisecond,
		Rollout: &ota.Plan{
			StartAt: 13 * time.Second,
			Rings:   []float64{25, 100},
			BringUp: 12 * time.Second,
			Bake:    2 * time.Second,
		},
	}
}

// TestRolloutSwapCarriesFaults pins what a firmware swap keeps: the
// faults armed at boot still fire in later incarnations, each device's
// crash report and micro-reboot survive two swaps, the cycle-sum
// invariant holds across every incarnation, and the whole Summary is
// byte-identical between lockstep and parallel runs.
func TestRolloutSwapCarriesFaults(t *testing.T) {
	cfg := swapPinConfig()
	lock, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := lock.Summary
	ro := s.Rollout
	if ro == nil || ro.Terminal != ota.StateRolledBack || ro.RolledBack != s.Devices {
		t.Fatalf("rollout status %+v, want every device rolled back", ro)
	}
	if want := durationCycles(31 * time.Second); ro.RollbackAtCycle != want {
		t.Fatalf("rollback at cycle %d, want %d (the checkpoint after the ping of death)",
			ro.RollbackAtCycle, want)
	}
	if s.DeviceErrors != 0 || s.SetupFailures != 0 {
		t.Fatalf("device errors %d, setup failures %d", s.DeviceErrors, s.SetupFailures)
	}
	if s.CrashReports != uint64(s.Devices) || s.CrashDevices != s.Devices {
		t.Fatalf("crash reports %d on %d devices, want one on each of %d",
			s.CrashReports, s.CrashDevices, s.Devices)
	}
	if s.Reboots != s.Devices {
		t.Fatalf("micro-reboots %d, want %d", s.Reboots, s.Devices)
	}
	for _, d := range lock.Devices {
		reps := d.crashReports()
		if len(reps) != 1 || reps[0].Compartment != "tcpip" || !reps[0].Reboot {
			t.Fatalf("device %d: %d crash reports %+v, want one micro-rebooted tcpip fault",
				d.Index, len(reps), reps)
		}
	}
	if s.Partition == nil || s.Partition.Devices == 0 || s.SkewedDevices == 0 || s.FramesDropped == 0 {
		t.Fatalf("faults did not arm: partition %+v, skewed %d, dropped %d",
			s.Partition, s.SkewedDevices, s.FramesDropped)
	}
	if !s.CycleSumExact {
		t.Fatal("cycle-sum invariant broken across firmware swaps")
	}
	// The link counters pin how each incarnation arms its faults: a
	// ping of death re-fired at a later swap adds frames to devices, and
	// a link-fault stream drawn differently drops other frames.
	if s.FramesToDevices != 205 || s.FramesDropped != 18 || s.Publishes != 232 {
		t.Fatalf("frames to devices %d, dropped %d, publishes %d; want 205, 18, 232",
			s.FramesToDevices, s.FramesDropped, s.Publishes)
	}

	par := cfg
	par.Lockstep = false
	par.Shards = 2
	parRes, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	ls, ps := lock.Summary, parRes.Summary
	ls.Shards, ps.Shards = 0, 0
	ls.Lockstep, ps.Lockstep = false, false
	if a, b := summaryJSON(t, ls), summaryJSON(t, ps); string(a) != string(b) {
		t.Fatalf("lockstep and parallel summaries differ:\n%s\n%s", a, b)
	}
}
