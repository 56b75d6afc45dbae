package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// neutralizeMode clears the run-mode fields so lockstep and parallel
// summaries can be byte-compared.
func neutralizeMode(s *Summary) {
	s.Shards = 0
	s.Lockstep = false
}

// TestFleetFanoutDeterminism is the satellite determinism matrix: with
// cloud-initiated broadcast fan-out and per-device commands active, a
// lockstep run and a 4-worker parallel run must produce byte-identical
// summaries, at both 2 and 8 broker shards.
func TestFleetFanoutDeterminism(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			cfg := Config{
				Devices:        8,
				Duration:       16 * time.Second,
				PublishRate:    2,
				ArrivalSpread:  500 * time.Millisecond,
				Seed:           7,
				CloudShards:    shards,
				FanoutEvery:    2 * time.Second,
				FanoutCommands: true,
			}

			lock := cfg
			lock.Lockstep = true
			rLock, err := Run(lock)
			if err != nil {
				t.Fatalf("lockstep run: %v", err)
			}
			par := cfg
			par.Shards = 4
			rPar, err := Run(par)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}

			s := rLock.Summary
			if s.DeviceErrors != 0 || s.SetupFailures != 0 {
				t.Fatalf("%d device errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
			}
			if s.FanoutDelivered == 0 {
				t.Error("no fan-out publishes were delivered")
			}
			if s.FanoutMissed == 0 {
				t.Error("no fan-outs were missed — schedule should start before devices connect")
			}
			if s.NotificationsReceived == 0 {
				t.Error("devices drained no cloud notifications end-to-end")
			}
			if s.CommandsDelivered == 0 {
				t.Error("no per-device commands were delivered")
			}
			if !s.CycleSumExact {
				t.Error("cycle attribution not exact under fan-out")
			}
			if len(s.BrokerShards) != shards {
				t.Errorf("summary has %d broker shards, want %d", len(s.BrokerShards), shards)
			}
			connects := 0
			for _, sh := range s.BrokerShards {
				connects += sh.Connects
			}
			if connects != s.BrokerConnects || connects < cfg.Devices {
				t.Errorf("per-shard connects sum to %d, total %d, devices %d",
					connects, s.BrokerConnects, cfg.Devices)
			}

			sl, sp := rLock.Summary, rPar.Summary
			neutralizeMode(&sl)
			neutralizeMode(&sp)
			j1, j2 := summaryJSON(t, sl), summaryJSON(t, sp)
			if !bytes.Equal(j1, j2) {
				t.Errorf("parallel diverges from lockstep at %d shards:\n--- lockstep ---\n%s\n--- parallel ---\n%s",
					shards, j1, j2)
			}
		})
	}
}

// heterogeneousConfig mixes three device profiles, including a microvium
// JavaScript device, over a 2-shard cloud.
func heterogeneousConfig() Config {
	return Config{
		Devices:       6,
		Lockstep:      true,
		Duration:      16 * time.Second,
		PublishRate:   2,
		ArrivalSpread: 500 * time.Millisecond,
		Seed:          11,
		CloudShards:   2,
		Profiles: []Profile{
			{Name: "sensor", Weight: 3, PublishRate: 3, PublishBytes: 24},
			{Name: "gateway", Weight: 2, PublishRate: 1, PublishBytes: 128, ReconnectEvery: 6},
			{Name: "jsdev", Weight: 1, PublishRate: 1, Firmware: FirmwareJS},
		},
	}
}

// TestFleetHeterogeneousProfilesDeterministic is the satellite
// heterogeneous-fleet run: mixed profiles (including the jsvm firmware
// shape) seeded twice must agree byte-for-byte, and the per-profile
// breakdown must cover the whole fleet.
func TestFleetHeterogeneousProfilesDeterministic(t *testing.T) {
	cfg := heterogeneousConfig()
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	j1, j2 := summaryJSON(t, r1.Summary), summaryJSON(t, r2.Summary)
	if !bytes.Equal(j1, j2) {
		t.Errorf("heterogeneous summaries differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}

	s := r1.Summary
	if s.DeviceErrors != 0 || s.SetupFailures != 0 {
		t.Fatalf("%d device errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
	}
	if s.CapabilityFaults != 0 {
		t.Errorf("capability faults = %d, want 0", s.CapabilityFaults)
	}
	if !s.CycleSumExact {
		t.Error("cycle attribution not exact for the mixed fleet")
	}
	total := 0
	byName := make(map[string]ProfileStat)
	for _, ps := range s.ProfileStats {
		total += ps.Devices
		byName[ps.Name] = ps
	}
	if total != cfg.Devices {
		t.Errorf("profile stats cover %d devices, want %d", total, cfg.Devices)
	}
	js, ok := byName["jsdev"]
	if !ok {
		t.Fatal("seed 11 assigned no jsvm device; pick a seed that does")
	}
	if js.Firmware != FirmwareJS {
		t.Errorf("jsdev firmware recorded as %q", js.Firmware)
	}
	if js.Publishes == 0 || js.Connects == 0 {
		t.Errorf("jsvm devices did no work: %d connects, %d publishes", js.Connects, js.Publishes)
	}
	if sensors := byName["sensor"]; sensors.Publishes <= js.Publishes {
		t.Errorf("3x-rate sensors published %d, jsvm published %d — rates not applied",
			sensors.Publishes, js.Publishes)
	}
}

// TestFleetSessionTTLLockstepMatchesParallel pins TTL reaping inside the
// lockstep ≡ parallel guarantee. The broker reaps only at run barriers,
// against the barrier cycle; a reap that compared other devices'
// last-activity stamps with the clock of whichever device happened to be
// dispatching would depend on how far apart the workers had drifted in
// simulated time. The 12 s TTL is far above every device's idle gap
// (publishes every 250 ms once connected), so no live session may go.
func TestFleetSessionTTLLockstepMatchesParallel(t *testing.T) {
	cfg := Config{
		Devices:       64,
		Duration:      40 * time.Second,
		PublishRate:   4,
		ArrivalSpread: 2 * time.Second,
		Seed:          7,
		SessionTTL:    12 * time.Second,
	}
	lock := cfg
	lock.Lockstep = true
	rLock, err := Run(lock)
	if err != nil {
		t.Fatalf("lockstep run: %v", err)
	}
	if s := rLock.Summary; s.BrokerReaped != 0 || s.ConnectFailures != 0 {
		t.Errorf("lockstep: %d sessions reaped, %d connect failures; want 0, 0",
			s.BrokerReaped, s.ConnectFailures)
	}
	sl := rLock.Summary
	neutralizeMode(&sl)
	want := summaryJSON(t, sl)
	// How far the workers drift apart depends on host scheduling, so
	// the parallel side runs several times.
	par := cfg
	par.Shards = 4
	for run := 1; run <= 3; run++ {
		rPar, err := Run(par)
		if err != nil {
			t.Fatalf("parallel run %d: %v", run, err)
		}
		sp := rPar.Summary
		neutralizeMode(&sp)
		if got := summaryJSON(t, sp); !bytes.Equal(got, want) {
			t.Fatalf("parallel run %d: %d sessions reaped, %d connect failures, %d publishes; lockstep %d, %d, %d",
				run, sp.BrokerReaped, sp.ConnectFailures, sp.Publishes,
				sl.BrokerReaped, sl.ConnectFailures, sl.Publishes)
		}
	}
}

// TestFleetSessionTTLReap is the satellite state-hygiene fix, verified
// fleet-scale: the ping of death silences every device mid-run, their
// broker sessions go idle past the TTL, and the end-of-run reap drops
// them — the broker's maps cannot grow without bound. The flight
// recorder's live-allocation view confirms the device side of the story:
// reconnect churn before the crash frees as it goes.
func TestFleetSessionTTLReap(t *testing.T) {
	cfg := testConfig()
	cfg.Lockstep = true
	cfg.Duration = 20 * time.Second
	cfg.ReconnectEvery = 4
	cfg.SessionTTL = 3 * time.Second
	cfg.FlightRecorder = 512
	cfg.PingOfDeathAt = 13 * time.Second

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	// Every device crashed at 13s and could not reconnect before the 20s
	// horizon (the TLS handshake alone takes ~10s), so every session sat
	// idle ~7s > the 3s TTL when the final reap ran (plus any sessions the
	// pre-crash churn left behind).
	if s.BrokerReaped < cfg.Devices {
		t.Errorf("broker reaped %d sessions, want >= %d", s.BrokerReaped, cfg.Devices)
	}
	if s.BrokerLiveSessions != 0 {
		t.Errorf("%d live sessions after the reap, want 0", s.BrokerLiveSessions)
	}
	if s.BrokerReaped+s.BrokerSuperseded+s.BrokerLiveSessions < s.BrokerConnects {
		t.Errorf("session accounting leaks: %d connects but only %d reaped + %d superseded + %d live",
			s.BrokerConnects, s.BrokerReaped, s.BrokerSuperseded, s.BrokerLiveSessions)
	}

	for _, d := range r.Devices {
		live := d.Rec.LiveAllocations()
		// The steady-state app owns a bounded working set; churn must not
		// accumulate dead MQTT/TLS handles.
		if len(live) > 48 {
			t.Errorf("device %d holds %d live allocations after churn — leaking?", d.Index, len(live))
		}
		if d.Stats.Reconnects > 0 && len(d.Rec.FreedAllocations()) == 0 {
			t.Errorf("device %d churned %d times but freed nothing", d.Index, d.Stats.Reconnects)
		}
	}
}

// TestFleetAvailabilityUnderPoD is the satellite availability metric: the
// per-second devices-publishing curve must show full availability before
// the ping of death, the outage while every device micro-reboots and
// re-handshakes, and full recovery before the horizon.
func TestFleetAvailabilityUnderPoD(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 2
	cfg.Lockstep = true
	cfg.Duration = 30 * time.Second
	cfg.ArrivalSpread = 500 * time.Millisecond
	cfg.FlightRecorder = 512
	cfg.PingOfDeathAt = 13 * time.Second

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	av := s.AvailabilityPerSecond
	if len(av) != 30 {
		t.Fatalf("availability curve has %d seconds, want 30", len(av))
	}
	// Bring-up: nothing publishes during the ~10s TLS handshake.
	if av[5] != 0 {
		t.Errorf("availability[5] = %d during bring-up, want 0", av[5])
	}
	// Steady state before the fault.
	if av[12] != cfg.Devices {
		t.Errorf("availability[12] = %d before the PoD, want %d", av[12], cfg.Devices)
	}
	// The outage: every device is rebooting/re-handshaking.
	if av[14] != 0 || av[18] != 0 {
		t.Errorf("availability during the outage = %d@14s %d@18s, want 0", av[14], av[18])
	}
	// Recovery: reboot + reconnect (~10s handshake) completes before 30s.
	if av[28] != cfg.Devices || av[29] != cfg.Devices {
		t.Errorf("availability at 28-29s = %d, %d — fleet did not recover to %d",
			av[28], av[29], cfg.Devices)
	}
	if s.CrashDevices != cfg.Devices || s.Reboots != cfg.Devices {
		t.Errorf("crash/reboot accounting: %d crash devices, %d reboots, want %d each",
			s.CrashDevices, s.Reboots, cfg.Devices)
	}
}

// TestFleetShardFailover schedules a shard failover mid-run: every device
// homed on the victim shard is kicked, reconnects, and keeps publishing —
// deterministically.
func TestFleetShardFailover(t *testing.T) {
	cfg := Config{
		Devices:       4,
		Lockstep:      true,
		Duration:      18 * time.Second,
		PublishRate:   2,
		ArrivalSpread: 500 * time.Millisecond,
		Seed:          7,
		CloudShards:   2,
		FailoverAt:    13 * time.Second,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	s := r1.Summary
	if s.FailoverKicks == 0 {
		t.Error("the failover kicked no devices")
	}
	if s.FailoverKicks > uint64(cfg.Devices) {
		t.Errorf("failover kicked %d devices of %d", s.FailoverKicks, cfg.Devices)
	}
	if s.Reconnects < s.FailoverKicks {
		t.Errorf("%d reconnects for %d kicks — kicked devices did not come back",
			s.Reconnects, s.FailoverKicks)
	}
	if s.DeviceErrors != 0 {
		t.Errorf("%d device errors after failover", s.DeviceErrors)
	}
	j1, j2 := summaryJSON(t, r1.Summary), summaryJSON(t, r2.Summary)
	if !bytes.Equal(j1, j2) {
		t.Errorf("failover runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}
