package cheriot_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/iotapp"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// dispatchGolden holds the pinned context-switch sequence.
const dispatchGolden = "testdata/dispatch_switches.golden"

// dispatchFleet is the pinned fleet: four devices stepped in lockstep
// through the TLS handshake and six seconds of publishes.
func dispatchFleet() fleet.Config {
	return fleet.Config{
		Devices:       4,
		Lockstep:      true,
		Duration:      16 * time.Second,
		PublishRate:   4,
		ArrivalSpread: time.Second,
		Seed:          1,
		TraceCapacity: 1 << 17,
	}
}

// roundRobinImage is three threads of one priority that work across
// quantum boundaries, yield and sleep for different times, so that
// several are ready at once and the order the kernel requeues and picks
// them shows in the switches. The case study and the fleet give each
// thread its own priority and rarely have two ready together.
func roundRobinImage() *firmware.Image {
	img := core.NewImage("round-robin")
	var exports []*firmware.Export
	for i, name := range []string{"a", "b", "c"} {
		work, nap := uint64(30_000+17_000*i), uint64(20_000+9_000*i)
		exports = append(exports, &firmware.Export{Name: name, MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for r := 0; r < 40; r++ {
					ctx.Work(work)
					if r%3 == 0 {
						ctx.Yield()
					}
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(uint32(nap)))
				}
				return nil
			}})
		img.AddThread(&firmware.Thread{Name: name, Compartment: "rr", Entry: name,
			Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	}
	img.AddCompartment(&firmware.Compartment{Name: "rr", CodeSize: 256,
		Imports: sched.Imports(), Exports: exports})
	return img
}

// switchLines appends one "device thread cycle" line per context switch
// in ring, in order. A ring that wrapped lost switches, so it fails.
func switchLines(t *testing.T, lines []string, device string, ring *telemetry.Ring) []string {
	t.Helper()
	if n := ring.Dropped(); n != 0 {
		t.Fatalf("%s: trace ring dropped %d events; raise its capacity", device, n)
	}
	for _, e := range ring.Events() {
		if e.Kind == telemetry.KindSwitch {
			lines = append(lines, fmt.Sprintf("%s %s %d", device, e.Thread, e.Cycle))
		}
	}
	return lines
}

// TestDispatchSequencePinned pins the order in which the kernel hands
// the core from thread to thread: every context switch, as (device,
// thread, cycle), of the §5.3.3 case study, of a 4-device lockstep fleet
// and of roundRobinImage, taken from the trace ring's switch events. A
// change to how the core is handed over must keep this sequence, and a
// mismatch names the first switch that differs rather than a digest.
// Rewrite the file with `go test -run TestDispatchSequencePinned -update .`
// only when the schedule changes on purpose.
func TestDispatchSequencePinned(t *testing.T) {
	app, err := iotapp.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	reg := app.Sys.EnableTelemetry(1 << 16)
	_, err = app.Run()
	app.Shutdown()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	got := switchLines(t, nil, "iot", reg.Ring())

	res, err := fleet.Run(dispatchFleet())
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	if res.Summary.Publishes == 0 {
		t.Fatal("the pinned fleet never published")
	}
	for i, d := range res.Devices {
		got = switchLines(t, got, fmt.Sprintf("dev%d", i), d.Tel.Ring())
	}

	rr, err := core.Boot(roundRobinImage())
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer rr.Shutdown()
	reg = rr.EnableTelemetry(1 << 14)
	if err := rr.Run(nil); err != nil {
		t.Fatalf("round robin: %v", err)
	}
	got = switchLines(t, got, "rr", reg.Ring())

	body := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(dispatchGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(dispatchGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("switch %d differs: got %q, want %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d switches, want %d", len(got), len(want))
	}
}
