package scenario

// The four ported ad-hoc campaigns (pod storm, shard failover,
// reconnect churn, heterogeneous profiles), the fault campaigns (broker
// partition, clock skew, quota storm), the snapshot and profiling
// campaigns and the staged-OTA ones. Every fleet is a small lockstep
// one (single-goroutine deterministic; the campaign runner parallelizes
// across cells instead) with a tight arrival spread and 2 Hz publishes.
// Each line is written out whole: a shared prefix would invite a later
// flag that overrides it unseen.
func init() {
	// --- Ported campaigns ---

	// The §5 ping-of-death storm (EXPERIMENTS "Fleet-scale forensics"):
	// every device crashes at 13s, micro-reboots, and rejoins; the 30s
	// horizon gives the ~10s TLS re-handshake room to finish.
	Register(Scenario{
		Name:    "pod-storm",
		Summary: "ping-of-death storm: crash every device at 13s, recover by micro-reboot",
		Fleet: "-devices 8 -lockstep -duration 30s -spread 500ms -publish-rate 2 " +
			"-flightrec 512 -pod 13s -slo availability>=0.9@28s;crashes>=8",
		Fixtures: []Fixture{
			FaultObserved{Fault: "pod"},
			CycleSumExact{},
		},
	})

	// The sharded-cloud failover campaign (README `-shards 2 -failover
	// 13s`): one seeded-random broker shard dies at 13s, its devices are
	// kicked and re-home onto the survivor.
	Register(Scenario{
		Name:    "shard-failover",
		Summary: "kill one broker shard at 13s; kicked devices re-home to the survivor",
		Fleet: "-devices 8 -shards 2 -lockstep -duration 30s -spread 500ms -publish-rate 2 " +
			"-failover 13s -slo availability>=0.9@28s;crashes<=0",
		Fixtures: []Fixture{
			FaultObserved{Fault: "failover"},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// The reconnect-churn campaign (README `-churn`): every device tears
	// its session down after every 8 publishes and re-handshakes.
	Register(Scenario{
		Name:    "reconnect-churn",
		Summary: "tear down and re-handshake every 8 publishes; no leaks, no losses",
		Fleet: "-devices 8 -lockstep -duration 30s -spread 500ms -publish-rate 2 " +
			"-churn 8 -slo crashes<=0;lost<=0",
		Fixtures: []Fixture{
			Churned{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// The heterogeneous-fleet campaign (README `-profiles`): weighted
	// sensor/gateway/jsvm profiles, the jsvm devices running the same
	// load generator as microvium bytecode.
	Register(Scenario{
		Name:    "mixed-profiles",
		Summary: "heterogeneous fleet: weighted sensor/gateway profiles plus jsvm firmware",
		Fleet: "-devices 6 -lockstep -duration 16s -spread 1s -publish-rate 2 " +
			"-profiles sensor:3:rate=2,bytes=24;gateway:2:churn=6;jsdev:1:fw=jsvm " +
			"-slo crashes<=0;lost<=0;delivery>=0.9",
		Fixtures: []Fixture{
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// --- New fault campaigns ---

	// Broker partition: one seeded-random shard's traffic blackholes for
	// 3s; its devices must detect the dead session and re-home.
	Register(Scenario{
		Name:    "broker-partition",
		Summary: "blackhole one broker shard's traffic 13s..16s; devices reconnect through it",
		Fleet: "-devices 8 -shards 2 -lockstep -duration 30s -spread 500ms -publish-rate 2 " +
			"-partition 13s -slo availability>=0.9@28s;crashes<=0",
		Fixtures: []Fixture{
			FaultObserved{Fault: "partition"},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// Clock skew: every device's NTP answer is skewed by a seeded offset
	// in [-500ms, +500ms]. Wall-clock drift must not disturb the
	// cycle-domain protocol machinery: no losses, full delivery.
	Register(Scenario{
		Name:    "clock-skew",
		Summary: "seeded per-device NTP skew in ±500ms; delivery must not care",
		Fleet: "-devices 8 -lockstep -duration 16s -spread 500ms -publish-rate 2 " +
			"-clock-skew 500ms -slo delivery>=0.99;crashes<=0;lost<=0",
		Fixtures: []Fixture{
			FaultObserved{Fault: "skew"},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// Quota-exhaustion storm: at 14s every app compartment allocates its
	// own "default" quota dry, publishes once while exhausted (the
	// netstack's quotas are separate — the publish must go through),
	// then frees everything. The flight recorder proves the storm
	// leaked nothing.
	Register(Scenario{
		Name:    "quota-storm",
		Summary: "exhaust every app's alloc quota at 14s; publish under pressure, leak nothing",
		Fleet: "-devices 8 -lockstep -duration 18s -spread 500ms -publish-rate 2 " +
			"-flightrec 256 -quota-storm 14s -slo crashes<=0;lost<=0",
		Fixtures: []Fixture{
			FaultObserved{Fault: "quota-storm"},
			LeakFree{Owner: "fleetapp", MaxLive: 8},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// --- Snapshot-boot campaign ---

	// Snapshot fork: the plain steady-state workload booted the default
	// way (one cold boot per firmware shape, every other device forked
	// from the template), with the fixture re-running the identical
	// fleet cold and demanding a byte-identical summary. This is the
	// campaign-level proof that fork ≡ cold boot.
	Register(Scenario{
		Name:    "snapshot-fork",
		Summary: "fork the fleet from a booted template; a cold-booted re-run must be byte-identical",
		Fleet: "-devices 8 -lockstep -duration 16s -spread 500ms -publish-rate 2 " +
			"-slo crashes<=0;lost<=0",
		Fixtures: []Fixture{
			ForkedEqualsCold{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// --- Profiling campaign ---

	// Profiled baseline: the plain steady-state workload with the
	// cycle-exact compartment profiler armed. Its cells carry a folded
	// call-stack profile in the summary, and the fixture judges the
	// sum-to-clock invariant per seed.
	Register(Scenario{
		Name:    "profiled-baseline",
		Summary: "steady-state fleet with the compartment profiler on; attribution must be exact",
		Fleet: "-devices 8 -lockstep -duration 16s -spread 500ms -publish-rate 2 " +
			"-prof -slo crashes<=0;lost<=0",
		Fixtures: []Fixture{
			ProfileCaptured{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// --- OTA rollout campaigns (the harness's first multi-phase ones:
	// the fault is a firmware change, staged through canary rings by the
	// internal/ota controller) ---

	// Healthy rollout: a 25% canary ring at 13s, widened to the whole
	// fleet once the updated cohort's trailing bake window is healthy.
	// Must run to terminal "complete" with every ring's advance carried
	// by a passing availability verdict.
	Register(Scenario{
		Name:    "rollout-healthy",
		Summary: "staged OTA rollout: 25% canary at 13s, health-gated widening to 100%",
		Fleet: "-devices 8 -lockstep -duration 46s -spread 500ms -publish-rate 2 " +
			"-rollout 13s -rollout-rings 25,100 -rollout-bringup 12s -rollout-bake 2s " +
			"-slo crashes<=0",
		Fixtures: []Fixture{
			RolloutComplete{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// Poisoned rollout: the same staging, but the update image ships a
	// deliberately crashy update agent. The verdict must PASS *because*
	// the rollback fired: crash reports above threshold, every device
	// back on the old firmware, zero manual intervention.
	Register(Scenario{
		Name:    "rollout-poisoned",
		Summary: "poisoned OTA image: canary crashes trip the threshold, auto-rollback recovers the fleet",
		Fleet: "-devices 8 -lockstep -duration 40s -spread 500ms -publish-rate 2 " +
			"-rollout 13s -rollout-rings 25,100 -rollout-bringup 12s -rollout-bake 2s " +
			"-rollout-poison -slo crashes>=3",
		Fixtures: []Fixture{
			RolledBack{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// Rollout under partition: compose the staged rollout with the
	// broker-partition fault. The blackhole stalls whichever canaries it
	// hits mid-bring-up; the health gate holds (failed bake windows
	// retry every checkpoint) and the rollout still completes.
	Register(Scenario{
		Name:    "rollout-under-partition",
		Summary: "staged rollout through a 16s..19s broker partition; the health gate rides it out",
		Fleet: "-devices 8 -shards 2 -lockstep -duration 50s -spread 500ms -publish-rate 2 " +
			"-partition 16s -rollout 13s -rollout-rings 25,100 -rollout-bringup 12s -rollout-bake 2s " +
			"-slo crashes<=0",
		Fixtures: []Fixture{
			FaultObserved{Fault: "partition"},
			RolloutComplete{},
			NoDeviceErrors{},
			CycleSumExact{},
		},
	})

	// --- Suites ---

	// smoke: the check.sh gate — small fleets, no flight-recorder
	// storms, fast enough to run under -race on every commit.
	RegisterSuite("smoke", "reconnect-churn", "clock-skew", "shard-failover", "snapshot-fork")
	// ported: the four legacy ad-hoc campaigns.
	RegisterSuite("ported", "pod-storm", "shard-failover", "reconnect-churn", "mixed-profiles")
	// faults: every fault-schedule campaign.
	RegisterSuite("faults", "pod-storm", "shard-failover", "broker-partition", "clock-skew", "quota-storm")
	// rollout: the staged-OTA campaigns, healthy and hostile.
	RegisterSuite("rollout", "rollout-healthy", "rollout-poisoned", "rollout-under-partition")
	// all: everything registered.
	RegisterSuite("all", "pod-storm", "shard-failover", "reconnect-churn", "mixed-profiles",
		"broker-partition", "clock-skew", "quota-storm", "snapshot-fork", "profiled-baseline",
		"rollout-healthy", "rollout-poisoned", "rollout-under-partition")
}
