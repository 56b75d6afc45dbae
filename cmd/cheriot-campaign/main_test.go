package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/scenario"
)

func init() {
	// A guaranteed-failing scenario for the exit-code contract: two
	// devices, nothing crashes, rule demands a crash.
	scenario.Register(scenario.Scenario{
		Name:    "test-always-fails",
		Summary: "test-only: impossible SLO",
		Fleet:   "-devices 2 -lockstep -duration 13s -spread 500ms -slo crashes>=1",
	})
}

// cli is the whole program; the exit code is the verdict contract:
// 0 pass, 2 usage, 3 failed cells.
func TestCLIExitCodes(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"list"}, &out, &errw); code != 0 {
		t.Errorf("list exited %d", code)
	}
	for _, want := range []string{"pod-storm", "smoke",
		"-devices 8 -lockstep -duration 30s -spread 500ms -publish-rate 2 -flightrec 512 -pod 13s " +
			"-slo 'availability>=0.9@28s;crashes>=8'\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}

	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run"},
		{"run", "no-such-scenario"},
		{"run", "smoke", "extra-arg"},
		{"run", "smoke", "-seeds", "0"},
		{"run", "smoke", "-seed", "0"}, // a fleet would run seed 0 as seed 1
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

// A listed line pastes into a POSIX shell as the scenario declares it:
// a token the shell would act on is single-quoted, a quote in it
// escaped, and a plain token left bare.
func TestShellQuote(t *testing.T) {
	for line, want := range map[string]string{
		"-devices 8 -lockstep -rollout-rings 25,100 -spread 500ms": "-devices 8 -lockstep -rollout-rings 25,100 -spread 500ms",
		"-slo delivery>=0.99;p99<=5ms":                             "-slo 'delivery>=0.99;p99<=5ms'",
		"-profiles a:2;b::fw=jsvm -slo crashes<=0":                 "-profiles 'a:2;b::fw=jsvm' -slo 'crashes<=0'",
		"-x a&b -y a|b -z a*? -w $HOME -v it's":                    `-x 'a&b' -y 'a|b' -z 'a*?' -w '$HOME' -v 'it'\''s'`,
	} {
		if got := shellQuote(line); got != want {
			t.Errorf("shellQuote(%q) = %s, want %s", line, got, want)
		}
	}
}
