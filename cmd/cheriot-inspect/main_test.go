package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/cheriot-go/cheriot/internal/flightrec"
)

// TestWriteChromeOneProcessPerDump exports two dumps: each becomes its
// own process named after its device, with balanced slices, and no
// thread's timestamps run backwards.
func TestWriteChromeOneProcessPerDump(t *testing.T) {
	var dumps []*flightrec.Dump
	for _, device := range []string{"dev-a", "dev-b"} {
		d, err := demoDump()
		if err != nil {
			t.Fatal(err)
		}
		d.Device = device
		dumps = append(dumps, d)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, dumps); err != nil {
		t.Fatalf("writeChrome: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}

	processes := map[int]any{}
	begins, ends := map[int]int{}, map[int]int{}
	lastTs := map[[2]int]float64{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				processes[e.Pid] = e.Args["name"]
			}
			continue
		case "B":
			begins[e.Pid]++
		case "E":
			ends[e.Pid]++
		}
		key := [2]int{e.Pid, e.Tid}
		if ts, ok := lastTs[key]; ok && e.Ts < ts {
			t.Errorf("pid %d tid %d: ts %f after %f", e.Pid, e.Tid, e.Ts, ts)
		}
		lastTs[key] = e.Ts
	}
	if len(processes) != 2 || processes[1] != "dev-a" || processes[2] != "dev-b" {
		t.Errorf("processes = %v, want pid 1 dev-a and pid 2 dev-b", processes)
	}
	for pid := 1; pid <= 2; pid++ {
		if begins[pid] == 0 || begins[pid] != ends[pid] {
			t.Errorf("pid %d: %d B vs %d E, want balanced slices", pid, begins[pid], ends[pid])
		}
	}
}
