package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleetcli"
	"github.com/cheriot-go/cheriot/internal/scenario"
)

func init() {
	// A guaranteed-failing scenario for the exit-code contract: two
	// devices, nothing crashes, rule demands a crash.
	c := fleetcli.Default()
	c.Seed = 0
	c.Devices = 2
	c.Lockstep = true
	c.Duration = 13 * time.Second
	c.ArrivalSpread = 500 * time.Millisecond
	scenario.Register(scenario.Scenario{
		Name:    "test-always-fails",
		Summary: "test-only: impossible SLO",
		Fleet:   c,
		SLO:     "crashes>=1",
	})
}

// cli is the whole program; the exit code is the verdict contract:
// 0 pass, 2 usage, 3 failed cells.
func TestCLIExitCodes(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"list"}, &out, &errw); code != 0 {
		t.Errorf("list exited %d", code)
	}
	if !strings.Contains(out.String(), "pod-storm") || !strings.Contains(out.String(), "smoke") {
		t.Errorf("list output missing registered names:\n%s", out.String())
	}

	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run"},
		{"run", "no-such-scenario"},
		{"run", "smoke", "extra-arg"},
		{"run", "smoke", "-seeds", "0"},
	} {
		if code := cli(args, &out, &errw); code != 2 {
			t.Errorf("cli(%v) exited %d, want 2", args, code)
		}
	}

	out.Reset()
	if code := cli([]string{"run", "test-always-fails", "-quiet", "-json"}, &out, &errw); code != 3 {
		t.Errorf("failing scenario exited %d, want 3", code)
	}
	if !strings.Contains(out.String(), `"pass": false`) {
		t.Errorf("JSON report does not record the failure:\n%s", out.String())
	}
}

// -hostprof records each cell's host wall-clock phase split in the
// JSON report; without it the report stays host-free.
func TestCLIHostProf(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"run", "test-always-fails", "-quiet", "-json", "-hostprof"}, &out, &errw); code != 3 {
		t.Fatalf("run exited %d, want 3", code)
	}
	var rep scenario.SuiteReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	sv := rep.Scenarios[0].Seeds[0]
	if sv.Host == nil {
		t.Fatal("-hostprof did not record a host phase split")
	}
	if sv.Host.Phase("step").WallSec <= 0 {
		t.Errorf("host split has no step phase: %+v", sv.Host.Phases)
	}

	out.Reset()
	if code := cli([]string{"run", "test-always-fails", "-quiet", "-json"}, &out, &errw); code != 3 {
		t.Fatalf("run exited %d, want 3", code)
	}
	if strings.Contains(out.String(), `"host"`) {
		t.Error("host split present without -hostprof")
	}
}

// Flag order is forgiving: `run -seeds 2 <target>` and
// `run <target> -seeds 2` build the same run.
func TestCLIFlagOrder(t *testing.T) {
	var a, b, errw bytes.Buffer
	codeA := cli([]string{"run", "test-always-fails", "-quiet", "-json", "-seeds", "2"}, &a, &errw)
	codeB := cli([]string{"run", "-quiet", "-json", "-seeds", "2", "test-always-fails"}, &b, &errw)
	if codeA != codeB {
		t.Fatalf("exit codes differ: %d vs %d", codeA, codeB)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("flag order changed the report")
	}
}
