package fleet

import (
	"bytes"
	"testing"
	"time"
)

// A broker partition blackholes one shard's traffic for the window,
// its devices notice the dead session and reconnect, and the fleet is
// fully available again before the horizon. The fault must be
// deterministic: lockstep and parallel runs agree byte-for-byte.
func TestFleetBrokerPartition(t *testing.T) {
	cfg := Config{
		Devices:       4,
		CloudShards:   2,
		Lockstep:      true,
		Duration:      30 * time.Second,
		PublishRate:   2,
		ArrivalSpread: 500 * time.Millisecond,
		Seed:          1,
		PartitionAt:   13 * time.Second,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.Partition == nil {
		t.Fatal("summary records no partition")
	}
	if s.Partition.Devices == 0 {
		t.Fatalf("partitioned shard %d owns no devices", s.Partition.Shard)
	}
	if s.Partition.FromSecond != 13 || s.Partition.UntilSecond != 16 {
		t.Errorf("partition window %g..%gs, want 13..16s (default 3s length)",
			s.Partition.FromSecond, s.Partition.UntilSecond)
	}
	if s.Reconnects == 0 {
		t.Error("no reconnects — partitioned devices never re-homed")
	}
	if s.FramesDropped == 0 {
		t.Error("no frames dropped — the partition never blackholed traffic")
	}
	if s.DeviceErrors > 0 || s.SetupFailures > 0 {
		t.Errorf("%d device errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
	}
	// The partitioned devices go dark mid-run...
	mid := s.AvailabilityPerSecond[20]
	if mid >= cfg.Devices {
		t.Errorf("availability at 20s = %d, want < %d (reconnect in progress)", mid, cfg.Devices)
	}
	// ...and everyone is back before the horizon.
	if last := s.AvailabilityPerSecond[29]; last != cfg.Devices {
		t.Errorf("availability at 29s = %d, want %d (fleet recovered)", last, cfg.Devices)
	}
	if !s.CycleSumExact {
		t.Error("cycle attribution lost exactness under partition")
	}

	par := cfg
	par.Lockstep = false
	par.Shards = 2
	r2, err := Run(par)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	// Neutralize the mode fields; everything else must agree.
	sl, sp := r.Summary, r2.Summary
	sl.Shards, sp.Shards = 0, 0
	sl.Lockstep, sp.Lockstep = false, false
	if !bytes.Equal(summaryJSON(t, sl), summaryJSON(t, sp)) {
		t.Error("lockstep and parallel partition summaries differ")
	}
}

// Clock skew shifts each device's NTP-derived wall clock by a seeded
// offset but never touches the cycle domain: publishes, delivery, and
// cycle attribution are unaffected, and the summary is identical to an
// unskewed run except for the skew accounting itself.
func TestFleetClockSkew(t *testing.T) {
	cfg := testConfig()
	cfg.Lockstep = true
	cfg.Duration = 16 * time.Second
	cfg.ClockSkewMax = 500 * time.Millisecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.SkewedDevices == 0 {
		t.Fatal("no skewed devices — the fault never armed")
	}
	if s.DeviceErrors > 0 || s.SetupFailures > 0 || s.PublishErrors > 0 {
		t.Errorf("skew broke the fleet: %d device errors, %d setup failures, %d publish errors",
			s.DeviceErrors, s.SetupFailures, s.PublishErrors)
	}
	if !s.CycleSumExact {
		t.Error("cycle attribution lost exactness under skew")
	}

	base := cfg
	base.ClockSkewMax = 0
	rb, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	sb := rb.Summary
	if sb.SkewedDevices != 0 {
		t.Fatalf("baseline reports %d skewed devices", sb.SkewedDevices)
	}
	// Cycle-domain behavior must be identical: skew only moves the
	// wall-clock notion, and nothing in the protocol path consumes it.
	if s.Publishes != sb.Publishes || s.Connects != sb.Connects ||
		s.FramesFromDevices != sb.FramesFromDevices {
		t.Errorf("skew changed cycle-domain behavior: %d/%d/%d publishes/connects/frames vs baseline %d/%d/%d",
			s.Publishes, s.Connects, s.FramesFromDevices,
			sb.Publishes, sb.Connects, sb.FramesFromDevices)
	}
}

// The quota-exhaustion storm drains every app compartment's own
// allocation quota: allocations are refused at the limit, a publish
// still succeeds while exhausted (the netstack's quotas are isolated —
// the whole point of per-compartment accounting), and the storm frees
// everything it took, proven by the flight recorder's live-allocation
// view.
func TestFleetQuotaStorm(t *testing.T) {
	cfg := testConfig()
	cfg.Lockstep = true
	cfg.Duration = 18 * time.Second
	cfg.QuotaStormAt = 14 * time.Second
	cfg.FlightRecorder = 256
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.QuotaStormDenied < uint64(cfg.Devices) {
		t.Errorf("%d quota refusals, want >= %d (one per device)", s.QuotaStormDenied, cfg.Devices)
	}
	if s.QuotaStormAllocs == 0 {
		t.Error("storm allocated nothing")
	}
	if s.QuotaStormPublishes != uint64(cfg.Devices) {
		t.Errorf("%d publishes under exhaustion, want %d — compartment isolation evidence",
			s.QuotaStormPublishes, cfg.Devices)
	}
	if s.DeviceErrors > 0 || s.CrashReports > 0 {
		t.Errorf("storm crashed devices: %d errors, %d crash reports", s.DeviceErrors, s.CrashReports)
	}
	if !s.CycleSumExact {
		t.Error("cycle attribution lost exactness under quota storm")
	}
	for _, d := range r.Devices {
		if d.Stats.StormDenied == 0 {
			t.Errorf("device %d never hit its quota", d.Index)
		}
		live := 0
		for _, a := range d.Rec.LiveAllocations() {
			if a.Owner == "fleetapp" {
				live++
			}
		}
		// Steady state: the app's working set, not 15 leaked storm chunks.
		if live > 8 {
			t.Errorf("device %d holds %d live fleetapp allocations after the storm — leaking", d.Index, live)
		}
	}
}

// The quota storm is a per-device fault, not a per-incarnation one: a
// device that micro-reboots into other firmware after its storm has run
// does not storm again. In this rollout the canary ring swaps at 13 s,
// before the 14 s storm, and the second ring only after it, so each of
// the 8 devices storms exactly once: 15 allocations of its 16 KiB quota,
// one refusal and one publish under exhaustion.
func TestFleetQuotaStormOncePerDevice(t *testing.T) {
	cfg := swapPinConfig()
	cfg.DropRate, cfg.JitterCycles = 0, 0
	cfg.PingOfDeathAt, cfg.PartitionAt, cfg.ClockSkewMax = 0, 0, 0
	cfg.QuotaStormAt = 14 * time.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.Rollout == nil || s.Rollout.OnNew != s.Devices {
		t.Fatalf("rollout status %+v, want every device updated", s.Rollout)
	}
	n := uint64(s.Devices)
	if s.QuotaStormDenied != n || s.QuotaStormAllocs != 15*n || s.QuotaStormPublishes != n {
		t.Errorf("storm denied/allocs/publishes = %d/%d/%d, want %d/%d/%d",
			s.QuotaStormDenied, s.QuotaStormAllocs, s.QuotaStormPublishes, n, 15*n, n)
	}
}
