package fleetcli

import (
	"strings"
	"testing"
	"time"
)

// ParseArgs starts from the CLI defaults and applies the flag deltas;
// finish resolves SLO-implies-Obs and the profile spec.
func TestParseArgs(t *testing.T) {
	cfg, err := ParseArgs(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if cfg.Devices != 16 || cfg.Duration != 20*time.Second || cfg.Seed != 1 {
		t.Errorf("default config = %+v", cfg)
	}
	if cfg.Obs {
		t.Error("observability on by default")
	}

	cfg, err = ParseArgs([]string{
		"-devices", "8", "-shards", "2", "-lockstep",
		"-profiles", "a:2:rate=3;b:1:fw=jsvm",
		"-partition", "13s", "-clock-skew", "500ms", "-quota-storm", "14s",
		"-slo", "crashes<=0",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.Devices != 8 || cfg.CloudShards != 2 || !cfg.Lockstep {
		t.Errorf("fleet shape = %+v", cfg)
	}
	if len(cfg.Profiles) != 2 || cfg.Profiles[1].Firmware != "jsvm" {
		t.Errorf("profiles = %+v", cfg.Profiles)
	}
	if cfg.PartitionAt != 13*time.Second || cfg.PartitionFor != 3*time.Second ||
		cfg.ClockSkewMax != 500*time.Millisecond || cfg.QuotaStormAt != 14*time.Second {
		t.Errorf("fault schedule = %+v", cfg)
	}
	if !cfg.Obs || cfg.SLO != "crashes<=0" {
		t.Error("-slo did not imply observability")
	}
}

func TestParseArgsErrors(t *testing.T) {
	if _, err := ParseArgs([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := ParseArgs([]string{"-devices", "4", "stray"}); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("stray positional arg: %v", err)
	}
	if _, err := ParseArgs([]string{"-profiles", "a:1;a:2"}); err == nil ||
		!strings.Contains(err.Error(), "duplicate name") {
		t.Errorf("duplicate profile: %v", err)
	}
}

// TestRolloutFlags covers the -rollout flag family: a full plan builds,
// and every bad flag, with every violation of the config it builds, is
// reported in ONE aggregated error naming each.
func TestRolloutFlags(t *testing.T) {
	cfg, err := ParseArgs([]string{
		"-rollout", "14s", "-rollout-rings", "1, 10,50,100",
		"-rollout-check", "2s", "-rollout-bringup", "11s", "-rollout-bake", "4s",
		"-rollout-slo", "availability>=0.8", "-rollout-crash-max", "5", "-rollout-poison",
	})
	if err != nil {
		t.Fatalf("full rollout invocation rejected: %v", err)
	}
	p := cfg.Rollout
	if p == nil {
		t.Fatal("no rollout plan built")
	}
	if p.StartAt != 14*time.Second || p.CheckEvery != 2*time.Second ||
		p.BringUp != 11*time.Second || p.Bake != 4*time.Second ||
		p.HealthSLO != "availability>=0.8" || p.CrashThreshold != 5 || !p.Poisoned {
		t.Errorf("plan = %+v", p)
	}
	if len(p.Rings) != 4 || p.Rings[0] != 1 || p.Rings[3] != 100 {
		t.Errorf("rings = %v", p.Rings)
	}

	// A bad ring spec and the config's own violations in one error: the
	// config's are fleet.Config.Check's, which
	// TestRunRejectsEveryViolationBeforeBoot pins.
	_, err = ParseArgs([]string{
		"-rollout", "14s", "-rollout-rings", "ten,100",
		"-no-snapshot", "-failover", "15s",
	})
	if err == nil {
		t.Fatal("contradictory rollout invocation accepted")
	}
	for _, want := range []string{"-rollout-rings", "NoSnapshot", "failover"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q missing %q", err, want)
		}
	}

	// Companion flags without -rollout: each named in one error.
	_, err = ParseArgs([]string{
		"-rollout-rings", "1,100", "-rollout-bake", "4s", "-rollout-poison",
	})
	if err == nil {
		t.Fatal("rollout companions without -rollout accepted")
	}
	for _, want := range []string{"-rollout-rings without -rollout", "-rollout-bake without -rollout", "-rollout-poison without -rollout"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q missing %q", err, want)
		}
	}

	// A companion flag set at all counts, its zero value included.
	if _, err := ParseArgs([]string{"-rollout-bake", "0s"}); err == nil ||
		!strings.Contains(err.Error(), "-rollout-bake without -rollout") {
		t.Errorf("explicit zero -rollout-bake without -rollout: %v", err)
	}

	// A healthy -failover needs multiple shards; with them it is fine.
	if _, err := ParseArgs([]string{"-shards", "4", "-failover", "15s"}); err != nil {
		t.Errorf("valid failover rejected: %v", err)
	}
}
