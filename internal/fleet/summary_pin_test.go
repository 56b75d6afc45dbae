package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/summaries.golden")

const summariesGolden = "testdata/summaries.golden"

// pinnedConfigs are the small lockstep fleets whose Summaries
// TestSummaryPinned pins: a steady fleet, one with every fault armed,
// one with every observer on, a poisoned rollout and a mixed Go/JS
// fleet. The profiler stays off: scripts/check.sh pins its output.
func pinnedConfigs() []struct {
	name string
	cfg  Config
} {
	steady := Config{
		Devices:       4,
		Lockstep:      true,
		Duration:      16 * time.Second,
		ArrivalSpread: 500 * time.Millisecond,
		PublishRate:   2,
		Seed:          1,
	}
	faults := steady
	faults.Devices = 6
	faults.CloudShards = 2
	faults.Duration = 30 * time.Second
	faults.FlightRecorder = 256
	faults.PingOfDeathAt = 13 * time.Second
	faults.QuotaStormAt = 14 * time.Second
	faults.ReconnectEvery = 8
	faults.DropRate = 0.002
	faults.JitterCycles = 5000
	faults.FanoutEvery = 2 * time.Second
	faults.FanoutCommands = true
	faults.FailoverAt = 20 * time.Second
	faults.ClockSkewMax = 500 * time.Millisecond
	faults.PartitionAt = 16 * time.Second
	faults.SessionTTL = 12 * time.Second

	observed := steady
	observed.CloudShards = 2
	observed.FanoutEvery = 2 * time.Second
	observed.Obs = true
	observed.SLO = "delivery>=0.9;availability>=0.5@12s"
	observed.FlightRecorder = 256
	observed.TraceCapacity = 256

	mixed := steady
	mixed.Profiles = []Profile{
		{Name: "sensor", Weight: 3, PublishRate: 3},
		{Name: "jsdev", Weight: 1, PublishRate: 1, Firmware: FirmwareJS},
	}

	return []struct {
		name string
		cfg  Config
	}{
		{"steady", steady},
		{"faults", faults},
		{"observed", observed},
		{"rollout-poisoned", rolloutConfig(true, 40*time.Second)},
		{"mixed", mixed},
	}
}

// TestSummaryPinned pins the JSON bytes of the Summary of a few small
// fleets at seed 1 against testdata/summaries.golden, one line per
// fleet, and names the first fleet and field that differ. The bench
// digests pin bigger fleets, but only a benchmark run checks them; this
// is the tier-1 guard that no refactor moves a simulated byte. Rewrite
// the file with `go test ./internal/fleet/ -run TestSummaryPinned
// -update`.
func TestSummaryPinned(t *testing.T) {
	var b strings.Builder
	for _, pc := range pinnedConfigs() {
		res, err := Run(pc.cfg)
		if err != nil {
			t.Fatalf("fleet %s: %v", pc.name, err)
		}
		j, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatalf("fleet %s: marshal: %v", pc.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", pc.name, j)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(summariesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(summariesGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d fleets pinned in %s, %d run", len(wantLines)-1, summariesGolden, len(gotLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		gName, gJSON, _ := strings.Cut(gotLines[i], " ")
		wName, wJSON, _ := strings.Cut(wantLines[i], " ")
		if gName != wName {
			t.Fatalf("line %d of %s pins fleet %s, but the test runs %s", i+1, summariesGolden, wName, gName)
		}
		var g, w any
		if err := json.Unmarshal([]byte(gJSON), &g); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(wJSON), &w); err != nil {
			t.Fatalf("%s line %d: %v", summariesGolden, i+1, err)
		}
		path, gv, wv := firstDiff("summary", g, w)
		if path == "" {
			// Same values, different bytes: the encoding itself moved.
			t.Fatalf("fleet %s: Summary bytes differ from %s line %d with equal values",
				gName, summariesGolden, i+1)
		}
		t.Errorf("fleet %s: %s = %s, %s pins %s", gName, path, gv, summariesGolden, wv)
	}
}

// firstDiff returns the path of the first value, in sorted key order,
// at which the decoded JSON documents got and want differ, with both
// values rendered; the path is "" when they are equal.
func firstDiff(path string, got, want any) (string, string, string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p, gv, wv := firstDiff(path+"."+k, g[k], w[k]); p != "" {
				return p, gv, wv
			}
		}
		return "", "", ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(w) && i < len(g); i++ {
			if p, gv, wv := firstDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); p != "" {
				return p, gv, wv
			}
		}
		if len(g) == len(w) {
			return "", "", ""
		}
		return path + ".length", fmt.Sprint(len(g)), fmt.Sprint(len(w))
	default:
		if got == want {
			return "", "", ""
		}
	}
	return path, render(got), render(want)
}

func render(v any) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return fmt.Sprint(v)
	}
	return strings.TrimSpace(b.String())
}
