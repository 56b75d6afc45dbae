package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/ota"
)

// testConfig is small enough to run in CI but long enough (the TLS
// handshake alone is ~10 simulated seconds) for devices to connect and
// publish.
func testConfig() Config {
	return Config{
		Devices:       3,
		Duration:      14 * time.Second,
		PublishRate:   2,
		ArrivalSpread: 500 * time.Millisecond,
		Seed:          7,
	}
}

func summaryJSON(t *testing.T, s Summary) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	return b
}

// TestFleetLockstepDeterminism runs the same lockstep config twice and
// requires byte-identical JSON summaries.
func TestFleetLockstepDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Lockstep = true

	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}

	if r1.Summary.Publishes == 0 {
		t.Error("no publishes — horizon too short for the workload?")
	}
	if r1.Summary.DeviceErrors != 0 {
		t.Errorf("%d device errors", r1.Summary.DeviceErrors)
	}
	if r1.Summary.SetupFailures != 0 {
		t.Errorf("%d setup failures", r1.Summary.SetupFailures)
	}
	if r1.Summary.CapabilityFaults != 0 {
		t.Errorf("capability faults = %d, want 0", r1.Summary.CapabilityFaults)
	}
	if !r1.Summary.CycleSumExact {
		t.Error("per-compartment cycles do not sum exactly to attributed cycles")
	}

	j1, j2 := summaryJSON(t, r1.Summary), summaryJSON(t, r2.Summary)
	if !bytes.Equal(j1, j2) {
		t.Errorf("lockstep summaries differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}

// TestFleetParallelMatchesLockstep runs the same seed+config in lockstep
// and in 2-shard parallel mode; because devices publish to private topics
// their simulations are independent, so everything except the mode fields
// must agree — run under -race this also exercises the concurrent cloud.
func TestFleetParallelMatchesLockstep(t *testing.T) {
	cfg := testConfig()

	lock := cfg
	lock.Lockstep = true
	rLock, err := Run(lock)
	if err != nil {
		t.Fatalf("lockstep run: %v", err)
	}

	par := cfg
	par.Shards = 2
	rPar, err := Run(par)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	// Per-device simulations must be identical regardless of sharding.
	for i := range rLock.Devices {
		dl, dp := rLock.Devices[i], rPar.Devices[i]
		if dl.Stats.Publishes != dp.Stats.Publishes ||
			dl.Stats.Connects != dp.Stats.Connects ||
			dl.Sys.Cycles() != dp.Sys.Cycles() {
			t.Errorf("device %d diverged: lockstep {connects %d, publishes %d, cycles %d} vs parallel {%d, %d, %d}",
				i, dl.Stats.Connects, dl.Stats.Publishes, dl.Sys.Cycles(),
				dp.Stats.Connects, dp.Stats.Publishes, dp.Sys.Cycles())
		}
	}

	// The summaries must agree once the mode fields are neutralized.
	sl, sp := rLock.Summary, rPar.Summary
	sl.Shards, sp.Shards = 0, 0
	sl.Lockstep, sp.Lockstep = false, false
	j1, j2 := summaryJSON(t, sl), summaryJSON(t, sp)
	if !bytes.Equal(j1, j2) {
		t.Errorf("parallel summary diverges from lockstep:\n--- lockstep ---\n%s\n--- parallel ---\n%s", j1, j2)
	}
}

// TestFleetFaultInjection turns on link drops, delivery jitter, and
// reconnect churn; devices must still reach steady state (retries absorb
// the losses) with zero capability faults.
func TestFleetFaultInjection(t *testing.T) {
	cfg := testConfig()
	cfg.Lockstep = true
	cfg.Duration = 16 * time.Second
	cfg.DropRate = 0.01
	cfg.JitterCycles = 10_000
	cfg.ReconnectEvery = 8

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.SetupFailures != 0 {
		t.Errorf("%d devices failed setup under 1%% drop", s.SetupFailures)
	}
	if s.Publishes == 0 {
		t.Error("no publishes under fault injection")
	}
	if s.FramesDropped == 0 {
		t.Error("fault injection dropped no frames")
	}
	if s.CapabilityFaults != 0 {
		t.Errorf("capability faults = %d, want 0", s.CapabilityFaults)
	}
	if !s.CycleSumExact {
		t.Error("cycle attribution not exact under fault injection")
	}
}

// TestDeviceIPDisjointFromCloud guards the address plan: no device IP may
// collide with a cloud address.
func TestDeviceIPDisjointFromCloud(t *testing.T) {
	cloud := map[uint32]string{
		GatewayIP: "gateway", DNSIP: "dns", NTPIP: "ntp", BrokerIP: "broker",
	}
	for i := 0; i < maxDevices; i++ {
		if name, clash := cloud[deviceIP(i)]; clash {
			t.Fatalf("device %d IP collides with %s", i, name)
		}
	}
}

// Run refuses a float setting no device can run before any device
// boots: NaN or infinite rates would otherwise publish never or without
// pause, a NaN in the Summary fails JSON encoding after the whole run,
// and a drop rate of 1 or more silently cuts every link. A negative
// arrival spread, which would start no device's app, is refused too, and
// so is a failover with one broker shard after the defaults clamp the
// shard count, which would kick every device and leave none publishing.
func TestRunRejectsBadFloats(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"publish rate NaN", func(c *Config) { c.PublishRate = nan }, "publish rate"},
		{"publish rate +Inf", func(c *Config) { c.PublishRate = inf }, "publish rate"},
		{"publish rate -Inf", func(c *Config) { c.PublishRate = -inf }, "publish rate"},
		{"profile rate NaN", func(c *Config) { c.Profiles = []Profile{{Name: "a", PublishRate: nan}} }, `profile "a" rate`},
		{"profile rate +Inf", func(c *Config) { c.Profiles = []Profile{{Name: "a", PublishRate: inf}} }, `profile "a" rate`},
		{"profile rate -Inf", func(c *Config) { c.Profiles = []Profile{{Name: "a", PublishRate: -inf}} }, `profile "a" rate`},
		{"drop NaN", func(c *Config) { c.DropRate = nan }, "drop rate"},
		{"drop +Inf", func(c *Config) { c.DropRate = inf }, "drop rate"},
		{"drop 1.5", func(c *Config) { c.DropRate = 1.5 }, "drop rate"},
		{"drop 1", func(c *Config) { c.DropRate = 1 }, "drop rate"},
		{"drop negative", func(c *Config) { c.DropRate = -0.1 }, "drop rate"},
		{"obs sample NaN", func(c *Config) { c.Obs, c.ObsSample = true, nan }, "obs sample"},
		{"obs sample +Inf", func(c *Config) { c.Obs, c.ObsSample = true, inf }, "obs sample"},
		{"obs sample -Inf", func(c *Config) { c.Obs, c.ObsSample = true, -inf }, "obs sample"},
		{"spread negative", func(c *Config) { c.ArrivalSpread = -time.Millisecond }, "arrival spread"},
		{"failover one shard", func(c *Config) {
			c.Devices, c.Duration, c.CloudShards, c.FailoverAt = 4, 40*time.Second, 1, 13*time.Second
		}, "failover"},
		{"failover one device", func(c *Config) {
			c.Devices, c.CloudShards, c.FailoverAt = 1, 2, 13*time.Second
		}, "failover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.edit(&cfg)
			res, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted the config; summary publishes %d", res.Summary.Publishes)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error %q, want it to name %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsEveryViolationBeforeBoot: Run checks the whole Config
// before anything boots, and one error names every violation, so a
// config breaking several rules is fixed in one edit. A rejected rollout
// costs tens of allocations, not the audit gate's cold boot of every
// firmware shape.
func TestRunRejectsEveryViolationBeforeBoot(t *testing.T) {
	cfg := testConfig()
	cfg.ArrivalSpread = -time.Millisecond
	cfg.FailoverAt = 15 * time.Second
	cfg.SLO = "delivery>=0.9"
	cfg.NoSnapshot = true
	cfg.Profiles = []Profile{{Name: "a"}, {Name: "b", Firmware: FirmwareJS}}
	cfg.Rollout = &ota.Plan{StartAt: 14 * time.Second, Rings: []float64{50, 10}}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run accepted a config breaking every rule")
	}
	for _, want := range []string{"arrival spread", "failover", "require Obs",
		"NoSnapshot", `profile "b" runs jsvm`, "rings must be strictly ascending"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %q does not name %q", err, want)
		}
	}

	rejected := rolloutConfig(false, 20*time.Second)
	rejected.NoSnapshot = true
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(rejected); err == nil {
			t.Fatal("rollout with NoSnapshot accepted")
		}
	})
	if allocs >= 100 {
		t.Errorf("rejecting a rollout with NoSnapshot took %.0f allocations, want tens", allocs)
	}
}
