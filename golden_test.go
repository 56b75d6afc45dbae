package cheriot_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/iotapp"
)

// update rewrites the committed outputs of the root tests instead of
// only checking them: the paper-cycles golden file and the BENCH_*.json
// reports (`go test -run ... -update .`; `make bench-json` for the
// latter). The BENCH tests take their wall-clock measurements, and
// apply the gates on them, only under it.
var update = flag.Bool("update", false, "rewrite testdata/paper_cycles.golden and the BENCH_*.json reports")

// paperGolden pins the paper's simulated cycle numbers.
const paperGolden = "testdata/paper_cycles.golden"

// TestPaperCyclesGolden pins the simulated numbers behind the paper's
// figures and tables in EXPERIMENTS.md — the Fig. 6a call and interrupt
// latencies, every Table 3 row, and the Fig. 7 case study's length,
// TCP/IP micro-reboot time and average load — against a committed golden
// file. A calibration change must show up as an explicit diff of that
// file (rewrite it with -update), never as a silent drift.
func TestPaperCyclesGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Simulated numbers of the paper's figures and tables (EXPERIMENTS.md).\n")
	b.WriteString("# Written by TestPaperCyclesGolden -update; any change is a calibration change.\n")
	row := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	const n = 16
	for _, tc := range fig6aCases {
		row("fig6a %-32s %9.1f cycles/call", tc.name, float64(callCycles(t, tc.minStack, n))/n)
	}
	row("fig6a %-32s %9.1f cycles/call", "library_call", float64(libCallCycles(t, n))/n)
	row("fig6a %-32s %9.1f cycles/irq", "interrupt_latency", float64(irqLatencyCycles(t, n))/n)
	for _, r := range table3Rows(t, n) {
		row("table3 %-31s %9.1f cycles", strings.ReplaceAll(r.name, " ", "_"), r.cycles)
	}

	app, err := iotapp.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := app.Run()
	app.Shutdown()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	row("fig7 total_cycles %d", app.Sys.Cycles())
	row("fig7 tcpip_reboot_ms %.1f", res.RebootMs)
	row("fig7 avg_load_pct %.1f", res.AvgLoadPct)

	got := b.String()
	if *update {
		if err := os.WriteFile(paperGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("measured numbers differ from %s (a calibration change must rewrite it with -update):\n--- golden\n%s--- measured\n%s",
			paperGolden, want, got)
	}
}

// writeBenchJSON renders a bench report, which every run checks, and
// writes it to the committed file name only under -update: wall-clock
// figures differ on every run, so plain test runs leave the tree clean.
func writeBenchJSON(t *testing.T, name string, report interface{}) {
	t.Helper()
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !*update {
		return
	}
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}
