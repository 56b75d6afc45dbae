package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFleetProfOffByteIdentical is the zero-cost contract at fleet
// scale: a profiled-off run is the default, and turning the profiler ON
// must not move a single simulated cycle — every device's clock and the
// whole deterministic summary (minus the profile itself) stay
// byte-identical.
func TestFleetProfOffByteIdentical(t *testing.T) {
	base := testConfig()
	base.Lockstep = true

	rBase, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	on := base
	on.Prof = true
	rOn, err := Run(on)
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}

	for i := range rBase.Devices {
		cb, cp := rBase.Devices[i].Sys.Cycles(), rOn.Devices[i].Sys.Cycles()
		if cb != cp {
			t.Errorf("device %d cycles changed with profiler on: %d vs %d", i, cb, cp)
		}
	}
	sb, sp := rBase.Summary, rOn.Summary
	if sp.Profile == nil {
		t.Fatal("profiled run has no Summary.Profile")
	}
	sp.Profile = nil
	j1, j2 := summaryJSON(t, sb), summaryJSON(t, sp)
	if !bytes.Equal(j1, j2) {
		t.Errorf("profiling changed the deterministic summary:\n--- off ---\n%s\n--- on ---\n%s", j1, j2)
	}
}

// TestFleetProfExactAndModeIndependent: per-frame cycles sum exactly to
// the merged telemetry clock delta, and lockstep vs parallel runs merge
// to byte-identical profiles.
func TestFleetProfExactAndModeIndependent(t *testing.T) {
	cfg := testConfig()
	cfg.Prof = true

	lock := cfg
	lock.Lockstep = true
	rLock, err := Run(lock)
	if err != nil {
		t.Fatalf("lockstep run: %v", err)
	}
	par := cfg
	par.Shards = 3
	rPar, err := Run(par)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	p := rLock.Summary.Profile
	if p == nil || len(p.Frames) == 0 {
		t.Fatal("no merged profile")
	}
	if !rLock.Summary.CycleSumExact {
		t.Error("CycleSumExact false on a healthy profiled run")
	}
	if p.SelfSum() != p.TotalCycles {
		t.Errorf("profile self sum %d != total %d", p.SelfSum(), p.TotalCycles)
	}
	// The profile total is the same clock delta telemetry attributes:
	// both were armed at the same instant on every device.
	if p.TotalCycles != rLock.Summary.Telemetry.AttributedCycles {
		t.Errorf("profile total %d != merged telemetry attributed %d",
			p.TotalCycles, rLock.Summary.Telemetry.AttributedCycles)
	}
	// The app's folded stacks surface the fleet workload.
	foundApp := false
	for _, f := range p.Frames {
		if len(f.Stack) >= 3 && f.Stack[:3] == "app" {
			foundApp = true
			break
		}
	}
	if !foundApp {
		t.Error("no app-thread frames in the merged profile")
	}

	j1, err := json.Marshal(rLock.Summary.Profile)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(rPar.Summary.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("lockstep and parallel profiles differ")
	}
}

// TestFleetHostProf: the host-phase split lands in the Result with the
// runner's real cost centers, and never touches the Summary.
func TestFleetHostProf(t *testing.T) {
	cfg := testConfig()
	cfg.HostProf = true

	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	hp := r.HostProf
	if hp == nil {
		t.Fatal("no HostProf in Result")
	}
	for _, phase := range []string{"boot", "step", "merge"} {
		p := hp.Phase(phase)
		if p.Name == "" || p.WallSec <= 0 {
			t.Errorf("phase %q missing or zero: %+v", phase, p)
		}
	}
	if hp.Phase("boot").Calls != uint64(cfg.Devices) {
		t.Errorf("boot calls = %d, want %d devices", hp.Phase("boot").Calls, cfg.Devices)
	}
	if hp.Phase("pump").Calls == 0 {
		t.Error("no inbox pumps sampled")
	}

	// Host profiling is wall-clock-only: the deterministic summary is
	// byte-identical to an uninstrumented run.
	base := testConfig()
	rBase, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	j1, j2 := summaryJSON(t, rBase.Summary), summaryJSON(t, r.Summary)
	if !bytes.Equal(j1, j2) {
		t.Error("host profiling changed the deterministic summary")
	}
}

// profilePins are the profiled fleets whose merged Profile JSON
// TestProfilePinned pins: a healthy rollout, in which every updated
// device closes two incarnations whose profiles the merge sums, and a
// mixed Go/JS fleet run on two shards. scripts/check.sh pins a third, a
// lockstep fleet with one incarnation per device.
func profilePins() []struct {
	name string
	cfg  Config
} {
	rollout := rolloutConfig(false, 45*time.Second)
	rollout.Prof = true
	mixed := Config{
		Devices:       4,
		Shards:        2,
		Duration:      16 * time.Second,
		ArrivalSpread: 500 * time.Millisecond,
		PublishRate:   2,
		Seed:          1,
		Prof:          true,
		Profiles: []Profile{
			{Name: "sensor", Weight: 3, PublishRate: 3},
			{Name: "jsdev", Weight: 1, PublishRate: 1, Firmware: FirmwareJS},
		},
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"rollout", rollout},
		{"mixed-sharded", mixed},
	}
}

// TestProfilePinned pins the bytes of each profilePins fleet's merged
// Profile against testdata/profile-<name>.golden and names the first
// frame that differs. Rewrite the files with `go test ./internal/fleet/
// -run TestProfilePinned -update`.
func TestProfilePinned(t *testing.T) {
	for _, pc := range profilePins() {
		res, err := Run(pc.cfg)
		if err != nil {
			t.Fatalf("fleet %s: %v", pc.name, err)
		}
		var got bytes.Buffer
		if err := res.Summary.Profile.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		path := "testdata/profile-" + pc.name + ".golden"
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("fleet %s: line %d is %q, %s pins %q", pc.name, i+1,
					strings.TrimSpace(gotLines[i]), path, strings.TrimSpace(wantLines[i]))
			}
		}
		t.Fatalf("fleet %s: profile has %d lines, %s pins %d", pc.name, len(gotLines), path, len(wantLines))
	}
}
