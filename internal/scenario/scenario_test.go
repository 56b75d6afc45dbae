package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/fleet"
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
// resolve, the config builds for an arbitrary seed, and no line sets a
// flag twice, where the later value would win unseen.
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
		cfg, err := sc.Config(3)
		if err != nil {
			t.Errorf("scenario %s: config: %v", name, err)
			continue
		}
		if cfg.Seed != 3 {
			t.Errorf("scenario %s: seed %d, want 3", name, cfg.Seed)
		}
		set := map[string]bool{}
		for _, a := range strings.Fields(sc.Fleet) {
			if !strings.HasPrefix(a, "-") {
				continue
			}
			f, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
			if set[f] {
				t.Errorf("scenario %s: the line sets -%s twice", name, f)
			}
			set[f] = true
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

// The seed matrix owns the seed: a line that sets -seed, in any of the
// spellings the flag package takes, is refused by Config, and Register
// panics on it as on a line that does not parse.
func TestHarnessOwnedFields(t *testing.T) {
	for _, line := range []string{"-devices 2 -seed 5", "-seed=5", "--seed 5", "--seed=5"} {
		sc := Scenario{Name: "bad", Fleet: line}
		if _, err := sc.Config(2); err == nil || !strings.Contains(err.Error(), "-seed") {
			t.Errorf("Config accepted line %q: %v", line, err)
		}
	}
	for _, line := range []string{"-devices 2 -seed 5", "-no-such-flag", "-devices 2 stray", "-slo crashes<=x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted line %q", line)
				}
			}()
			Register(Scenario{Name: "t-register-" + line, Fleet: line})
		}()
		if _, ok := Get("t-register-" + line); ok {
			t.Errorf("line %q was registered", line)
		}
	}
}

// tinyScenario is a fast ad-hoc scenario for runner tests: 2 devices,
// just past the TLS handshake, then the extra flags.
func tinyScenario(name, flags string, fixtures ...Fixture) Scenario {
	return Scenario{Name: name, Summary: "test scenario",
		Fleet:    "-devices 2 -lockstep -duration 13s -spread 500ms -publish-rate 2 " + flags,
		Fixtures: fixtures}
}

// The aggregated suite report is a pure function of (scenarios,
// seeds): the sequential and worker-pool runners must emit
// byte-identical JSON.
func TestSeedMatrixDeterminism(t *testing.T) {
	scs := []Scenario{
		tinyScenario("t-a", "-slo crashes<=0", CycleSumExact{}),
		tinyScenario("t-b", "-slo lost<=0", NoDeviceErrors{}),
		tinyScenario("t-c", "-profiles a:2;b::rate=3 -slo crashes<=0", NoDeviceErrors{}),
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

// The LeakFree fixture passes a cell whose line arms the flight
// recorder and fails one whose line does not, and it refuses an empty
// owner, which would count no allocation at all.
func TestLeakFreeNeedsRecorder(t *testing.T) {
	leak := LeakFree{Owner: "fleetapp", MaxLive: 8}
	rep := Run("leak", []Scenario{
		tinyScenario("t-rec", "-flightrec 64", leak),
		tinyScenario("t-norec", "", leak),
		tinyScenario("t-noowner", "-flightrec 64", LeakFree{MaxLive: 8}),
	}, Options{Seeds: []uint64{1}})
	want := map[string]string{"t-rec": "", "t-norec": "has no flight recorder", "t-noowner": "empty owner"}
	for _, sr := range rep.Scenarios {
		sv := sr.Seeds[0]
		if len(sv.Fixtures) != 1 {
			t.Fatalf("%s: fixtures %+v (error %q)", sr.Scenario, sv.Fixtures, sv.Err)
		}
		w, fr := want[sr.Scenario], sv.Fixtures[0]
		if fr.OK != (w == "") || !strings.Contains(fr.Detail, w) {
			t.Errorf("%s: leak-free ok=%v %q, want the failure %q", sr.Scenario, fr.OK, fr.Detail, w)
		}
	}
}

// The ProfileCaptured fixture passes a cell whose line arms the
// profiler, with the captured profile in the cell's summary, judged
// exact, and fails one whose line does not; the HostProf option
// records the host phase split in the verdict without touching the
// deterministic fields.
func TestProfiledCell(t *testing.T) {
	prof := tinyScenario("t-prof", "-prof -slo crashes<=0", ProfileCaptured{})
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

	unarmed := tinyScenario("t-unprof", "-slo crashes<=0", ProfileCaptured{})
	if sv := Run("unprof", []Scenario{unarmed}, Options{Seeds: []uint64{1}}).Scenarios[0].Seeds[0]; sv.Pass ||
		len(sv.Fixtures) != 1 || !strings.Contains(sv.Fixtures[0].Detail, "profiler never armed") {
		t.Errorf("ProfileCaptured passed a cell without -prof: %+v", sv.Fixtures)
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
	fork := tinyScenario("t-fork", "-slo crashes<=0", ForkedEqualsCold{})
	rep := Run("fork", []Scenario{fork}, Options{Seeds: []uint64{1}})
	if !rep.Pass {
		t.Fatalf("forked cell failed: %+v", rep.Scenarios[0].Seeds[0])
	}
	cold := tinyScenario("t-cold", "-no-snapshot -slo crashes<=0", ForkedEqualsCold{})
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
	failSLO := tinyScenario("t-badslo", "-slo crashes>=1") // nothing crashes here
	failFix := tinyScenario("t-badfix", "", CheckFunc{
		Label: "always-fails",
		Fn:    func(*fleet.Result) error { return fmt.Errorf("synthetic failure") },
	})
	good := tinyScenario("t-good", "-slo crashes<=0")
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

	// A config error is a failed cell too, not a panic: an unregistered
	// scenario whose line sets -seed, or does not parse.
	rep = Run("broken", []Scenario{
		tinyScenario("t-seeded", "-seed 5"),
		tinyScenario("t-unparsed", "-no-such-flag"),
	}, Options{Seeds: []uint64{1}})
	for _, sr := range rep.Scenarios {
		if sv := sr.Seeds[0]; sv.Pass || sv.Err == "" {
			t.Errorf("%s: config error not surfaced: %+v", sr.Scenario, sv)
		}
	}
}
