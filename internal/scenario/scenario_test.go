package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetcli"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
)

// update rewrites testdata/scenario_configs.golden instead of comparing
// against it.
var update = flag.Bool("update", false, "rewrite testdata/scenario_configs.golden")

// scenarioConfigsGolden pins every registered scenario's fleet.Config.
const scenarioConfigsGolden = "testdata/scenario_configs.golden"

// TestScenarioConfigsPinned pins the fleet.Config every registered
// scenario builds at seeds 1 and 7, one JSON line per cell, so a change
// to how scenarios declare their fleets cannot move a field unseen; it
// names the first scenario that differs. Rewrite the file with
// `go test ./internal/scenario/ -run TestScenarioConfigsPinned -update`.
func TestScenarioConfigsPinned(t *testing.T) {
	var b strings.Builder
	for _, name := range Names() {
		sc, _ := Get(name)
		for _, seed := range []uint64{1, 7} {
			cfg, err := sc.Config(seed)
			if err != nil {
				t.Fatalf("scenario %s seed %d: config: %v", name, seed, err)
			}
			j, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("scenario %s seed %d: marshal: %v", name, seed, err)
			}
			fmt.Fprintf(&b, "%s seed=%d %s\n", name, seed, j)
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(scenarioConfigsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scenarioConfigsGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			name, _, _ := strings.Cut(g, " ")
			if g == "" {
				name, _, _ = strings.Cut(w, " ")
			}
			t.Fatalf("scenario %s: config differs from %s line %d:\n--- golden\n%s\n--- built\n%s",
				name, scenarioConfigsGolden, i+1, w, g)
		}
	}
}

// Every registered scenario must declare a coherent shape: members
// resolve, SLO rules parse, and the config builds for an arbitrary
// seed.
func TestRegistrySanity(t *testing.T) {
	if len(Names()) == 0 || len(SuiteNames()) == 0 {
		t.Fatal("empty registry")
	}
	for _, name := range Names() {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) failed for a listed name", name)
		}
		if sc.Summary == "" {
			t.Errorf("scenario %s has no summary line", name)
		}
		if _, err := fleetobs.ParseRules(sc.SLO); err != nil {
			t.Errorf("scenario %s: SLO rules do not parse: %v", name, err)
		}
		cfg, err := sc.Config(3)
		if err != nil {
			t.Errorf("scenario %s: config: %v", name, err)
			continue
		}
		if cfg.Seed != 3 {
			t.Errorf("scenario %s: seed %d, want 3", name, cfg.Seed)
		}
		if sc.SLO != "" && !cfg.Obs {
			t.Errorf("scenario %s: SLO set but observability off", name)
		}
	}
	for _, suite := range SuiteNames() {
		scs, ok := Suite(suite)
		if !ok || len(scs) == 0 {
			t.Errorf("suite %s does not resolve", suite)
		}
	}
	if _, ok := Suite("no-such-suite"); ok {
		t.Error("unknown suite resolved")
	}
}

// The LeakFree fixture arms the flight recorder it needs when the
// scenario didn't ask for one.
func TestLeakFreePreparesRecorder(t *testing.T) {
	sc, ok := Get("quota-storm")
	if !ok {
		t.Fatal("quota-storm not registered")
	}
	if sc.Fleet.FlightRecorder != 0 {
		t.Fatal("quota-storm declares its own recorder; the Prepare path is untested")
	}
	cfg, err := sc.Config(1)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if cfg.FlightRecorder == 0 {
		t.Error("LeakFree.Prepare did not arm the flight recorder")
	}
}

// A scenario that sets the harness-owned fields is rejected, loudly.
func TestHarnessOwnedFields(t *testing.T) {
	sc := Scenario{Name: "bad", Fleet: fleetcli.Default()} // Default() has Seed 1
	if _, err := sc.Config(2); err == nil {
		t.Error("Config accepted a scenario-declared seed")
	}
	c := fleetcli.Default()
	c.Seed = 0
	c.SLO = "crashes<=0"
	sc = Scenario{Name: "bad2", Fleet: c}
	if _, err := sc.Config(2); err == nil {
		t.Error("Config accepted a scenario-declared Fleet.SLO")
	}
}

// Every ported scenario is provably the old flag campaign: parsing its
// documented cheriot-fleet invocation through fleetcli yields the
// identical fleet.Config, and running both produces byte-identical
// summaries.
func TestPortedScenarioEquivalence(t *testing.T) {
	const seed = 9
	ported := 0
	for _, name := range Names() {
		sc, _ := Get(name)
		if sc.Equivalent == "" {
			continue
		}
		ported++
		t.Run(name, func(t *testing.T) {
			args := append(strings.Fields(sc.Equivalent), "-seed", fmt.Sprint(seed))
			legacy, err := fleetcli.ParseArgs(args)
			if err != nil {
				t.Fatalf("parse documented invocation %q: %v", sc.Equivalent, err)
			}
			cfg, err := sc.Config(seed)
			if err != nil {
				t.Fatalf("scenario config: %v", err)
			}
			if !reflect.DeepEqual(legacy, cfg) {
				t.Fatalf("configs differ:\nflags:    %+v\nscenario: %+v", legacy, cfg)
			}
			rFlags, err := fleet.Run(legacy)
			if err != nil {
				t.Fatalf("flag run: %v", err)
			}
			rScen, err := fleet.Run(cfg)
			if err != nil {
				t.Fatalf("scenario run: %v", err)
			}
			j1, err := json.Marshal(rFlags.Summary)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := json.Marshal(rScen.Summary)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Errorf("summaries differ:\n--- flags ---\n%s\n--- scenario ---\n%s", j1, j2)
			}
		})
	}
	if ported < 4 {
		t.Errorf("%d ported scenarios, want the 4 legacy campaigns", ported)
	}
}

// tinyScenario is a fast ad-hoc scenario for runner tests: 2 devices,
// just past the TLS handshake.
func tinyScenario(name, slo string, fixtures ...Fixture) Scenario {
	c := fleetcli.Default()
	c.Seed = 0
	c.Devices = 2
	c.Lockstep = true
	c.Duration = 13 * time.Second
	c.ArrivalSpread = 500 * time.Millisecond
	c.PublishRate = 2
	return Scenario{Name: name, Summary: "test scenario", Fleet: c, SLO: slo, Fixtures: fixtures}
}

// The aggregated suite report is a pure function of (scenarios,
// seeds): the sequential and worker-pool runners must emit
// byte-identical JSON. t-c's cells share its declared Profiles slice,
// so under -race the worker pool also checks that a run leaves it be.
func TestSeedMatrixDeterminism(t *testing.T) {
	profiled := tinyScenario("t-c", "crashes<=0", NoDeviceErrors{})
	profiled.Fleet.Profiles = []fleet.Profile{{Name: "a", Weight: 2}, {Name: "b", PublishRate: 3}}
	scs := []Scenario{
		tinyScenario("t-a", "crashes<=0", CycleSumExact{}),
		tinyScenario("t-b", "lost<=0", NoDeviceErrors{}),
		profiled,
	}
	seeds := []uint64{1, 2, 3}
	seq := Run("matrix", scs, Options{Seeds: seeds, Workers: 1})
	par := Run("matrix", scs, Options{Seeds: seeds, Workers: 4})
	j1, err := json.MarshalIndent(seq, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(par, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("sequential and parallel suite reports differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", j1, j2)
	}
	if !seq.Pass {
		t.Error("trivial suite failed")
	}
	if total, failed := seq.Cells(); total != 9 || failed != 0 {
		t.Errorf("cells = %d/%d failed, want 9/0", total, failed)
	}
}

// The ProfileCaptured fixture arms the profiler through Prepare and
// the captured profile lands in the cell's summary, judged exact; the
// HostProf option records the host phase split in the verdict without
// touching the deterministic fields.
func TestProfiledCell(t *testing.T) {
	sc, ok := Get("profiled-baseline")
	if !ok {
		t.Fatal("profiled-baseline not registered")
	}
	if sc.Fleet.Prof {
		t.Fatal("profiled-baseline sets Fleet.Prof itself; the Prepare path is untested")
	}
	cfg, err := sc.Config(1)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if !cfg.Prof {
		t.Error("ProfileCaptured.Prepare did not arm the profiler")
	}

	prof := tinyScenario("t-prof", "crashes<=0", ProfileCaptured{})
	rep := Run("prof", []Scenario{prof}, Options{Seeds: []uint64{1}, HostProf: true})
	if !rep.Pass {
		t.Fatalf("profiled cell failed: %+v", rep.Scenarios[0].Seeds[0])
	}
	sv := rep.Scenarios[0].Seeds[0]
	if sv.Summary == nil || sv.Summary.Profile == nil || len(sv.Summary.Profile.Frames) == 0 {
		t.Error("no profile in the cell summary")
	}
	if sv.Host == nil {
		t.Fatal("HostProf option did not record the host phase split")
	}
	for _, phase := range []string{"boot", "step", "merge"} {
		if sv.Host.Phase(phase).WallSec <= 0 {
			t.Errorf("host phase %q missing from the cell verdict", phase)
		}
	}

	// Without the option the verdict stays host-free.
	rep = Run("prof", []Scenario{prof}, Options{Seeds: []uint64{1}})
	if rep.Scenarios[0].Seeds[0].Host != nil {
		t.Error("host split recorded without Options.HostProf")
	}
}

// The ForkedEqualsCold fixture is the campaign-level fork ≡ cold proof:
// a tiny forked cell passes (the cold re-run inside the fixture matches
// byte for byte), and a cell forced to NoSnapshot fails the fixture
// because nothing ever forked — the check cannot pass vacuously.
func TestForkedEqualsColdCell(t *testing.T) {
	if _, ok := Get("snapshot-fork"); !ok {
		t.Fatal("snapshot-fork not registered")
	}
	fork := tinyScenario("t-fork", "crashes<=0", ForkedEqualsCold{})
	rep := Run("fork", []Scenario{fork}, Options{Seeds: []uint64{1}})
	if !rep.Pass {
		t.Fatalf("forked cell failed: %+v", rep.Scenarios[0].Seeds[0])
	}
	cold := tinyScenario("t-cold", "crashes<=0", ForkedEqualsCold{})
	cold.Fleet.NoSnapshot = true
	rep = Run("cold", []Scenario{cold}, Options{Seeds: []uint64{1}})
	if rep.Pass {
		t.Fatal("fixture passed on a NoSnapshot cell — fork evidence was never demanded")
	}
	sv := rep.Scenarios[0].Seeds[0]
	if len(sv.Fixtures) == 0 || sv.Fixtures[0].OK {
		t.Errorf("fixture failure not recorded: %+v", sv)
	}
}

// A failing SLO rule or fixture fails its cell, its scenario, and the
// suite — and the evidence is recorded in the verdict.
func TestFailingVerdictPropagates(t *testing.T) {
	failSLO := tinyScenario("t-badslo", "crashes>=1") // nothing crashes here
	failFix := tinyScenario("t-badfix", "", CheckFunc{
		Label: "always-fails",
		Fn:    func(*fleet.Result) error { return fmt.Errorf("synthetic failure") },
	})
	good := tinyScenario("t-good", "crashes<=0")
	rep := Run("mixed", []Scenario{failSLO, failFix, good}, Options{Seeds: []uint64{1}})
	if rep.Pass {
		t.Fatal("suite passed with failing cells")
	}
	if total, failed := rep.Cells(); total != 3 || failed != 2 {
		t.Errorf("cells = %d total/%d failed, want 3/2", total, failed)
	}
	bySc := map[string]ScenarioReport{}
	for _, sr := range rep.Scenarios {
		bySc[sr.Scenario] = sr
	}
	if sv := bySc["t-badslo"].Seeds[0]; sv.Pass || sv.SLO == nil || sv.SLO.Pass {
		t.Errorf("SLO failure not recorded: %+v", sv)
	}
	if sv := bySc["t-badfix"].Seeds[0]; sv.Pass || len(sv.Fixtures) != 1 ||
		sv.Fixtures[0].OK || sv.Fixtures[0].Detail != "synthetic failure" {
		t.Errorf("fixture failure not recorded: %+v", sv)
	}
	if sv := bySc["t-good"].Seeds[0]; !sv.Pass || sv.Summary == nil {
		t.Errorf("good cell failed: %+v", sv)
	}

	// A config error is a failed cell too, not a panic.
	broken := tinyScenario("t-broken", "")
	broken.Fleet.Seed = 5
	rep = Run("broken", []Scenario{broken}, Options{Seeds: []uint64{1}})
	if rep.Pass || rep.Scenarios[0].Seeds[0].Err == "" {
		t.Errorf("config error not surfaced: %+v", rep.Scenarios[0].Seeds[0])
	}
}
