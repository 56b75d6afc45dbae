package core_test

import (
	"runtime"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// TestBootStartsNoGoroutine: booting the fleet's firmware image, cold or
// as a snapshot capture, and forking it start no goroutine; a thread
// binds a runner only at its first dispatch. After Shutdown a machine
// whose thread blocked holds no goroutine either, and nor does one whose
// threads all exited, without a Shutdown.
func TestBootStartsNoGoroutine(t *testing.T) {
	// Goroutines an earlier test left exiting can only lower the count,
	// so any rise is the machine's.
	start := runtime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > start {
			t.Fatalf("%d goroutines %s, %d before the boot", n, when, start)
		}
	}
	img := fleet.RepresentativeImage(fleet.Config{})
	tmpl, err := core.BootWith(img, core.BootOptions{CaptureSnapshot: true})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	check("after a capture")
	s, err := core.BootWith(img, core.BootOptions{Snapshot: tmpl.Snapshot})
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	check("after a fork")
	tmpl.Shutdown()
	s.Shutdown()
	check("after shutting down machines that never ran")

	// The fleet app runs only on a machine bound to a fleet device (its
	// kernel's Env), so the run is a fork of an image whose thread sleeps
	// forever.
	img = core.NewImage("sleeps")
	img.AddCompartment(&firmware.Compartment{Name: "app", CodeSize: 64,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for {
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(10_000))
				}
			}}}})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	if tmpl, err = core.BootWith(img, core.BootOptions{CaptureSnapshot: true}); err != nil {
		t.Fatalf("capture: %v", err)
	}
	tmpl.Shutdown()
	if s, err = core.BootWith(img, core.BootOptions{Snapshot: tmpl.Snapshot}); err != nil {
		t.Fatalf("fork: %v", err)
	}
	if err := s.RunFor(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Shutdown()
	check("after Shutdown")

	img = core.NewImage("exits")
	img.AddCompartment(&firmware.Compartment{Name: "app", CodeSize: 64,
		Exports: []*firmware.Export{{Name: "main", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Yield()
				return nil
			}}}})
	for _, name := range []string{"a", "b"} {
		img.AddThread(&firmware.Thread{Name: name, Compartment: "app", Entry: "main",
			Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	}
	s, err = core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check("after a run in which every thread exited")
}
