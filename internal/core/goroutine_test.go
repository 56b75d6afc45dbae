package core_test

import (
	"runtime"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/token"
)

// TestBootStartsNoGoroutine: booting the fleet's firmware image, cold or
// as a snapshot capture, and forking the capture (core.Fork) start no
// goroutine; a thread binds a runner only at its first dispatch. After
// Shutdown a machine whose thread blocked holds no goroutine either, and
// nor does one whose threads all exited, without a Shutdown.
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
	s := core.Fork(tmpl.Snapshot, core.BootOptions{})
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
	s = core.Fork(tmpl.Snapshot, core.BootOptions{})
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

// TestForksShareTheCapturedImage: two forks of one capture of the fleet's
// firmware boot the captured image as is, TCB included: they share the
// image, every compartment definition and the report, and copy none.
// Only the machine is each fork's own, its TCB services with it: an
// allocation on one leaves the other's allocator as it was. A fork costs
// a bounded number of host allocations.
func TestForksShareTheCapturedImage(t *testing.T) {
	tmpl, err := core.BootWith(fleet.RepresentativeImage(fleet.Config{}), core.BootOptions{CaptureSnapshot: true})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	tmpl.Shutdown()
	a, b := core.Fork(tmpl.Snapshot, core.BootOptions{}), core.Fork(tmpl.Snapshot, core.BootOptions{})
	defer a.Shutdown()
	defer b.Shutdown()
	if a.Image != tmpl.Image || b.Image != tmpl.Image {
		t.Fatal("a fork boots an image other than the captured one")
	}
	if a.Report != tmpl.Report || b.Report != tmpl.Report {
		t.Fatal("a fork holds a report other than the capture's")
	}
	for _, def := range tmpl.Image.Compartments {
		if a.Kernel.Comp(def.Name).Def() != def || b.Kernel.Comp(def.Name).Def() != def {
			t.Fatalf("compartment %s: a fork runs a definition other than the capture's", def.Name)
		}
	}
	for _, name := range []string{sched.Name, alloc.Name, token.Name} {
		if tmpl.Image.Compartment(name) == nil {
			t.Fatalf("the captured image lacks TCB compartment %s", name)
		}
	}
	if a.Sched == b.Sched || a.Alloc == b.Alloc || a.Token == b.Token {
		t.Fatal("two forks share a TCB service")
	}

	// The network driver, the highest-priority thread, allocates its DMA
	// staging buffer and then blocks on its interrupt; the run stops at
	// that dispatch, before the fleet app, which runs only on a fleet
	// device, is picked.
	before := b.Alloc.Stats()
	if err := a.Run(func() bool { return a.Alloc.Stats().Allocs > 0 }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := a.Alloc.Stats().Allocs; n != 1 {
		t.Fatalf("the fork's allocator counts %d allocations, want 1", n)
	}
	if after := b.Alloc.Stats(); after != before {
		t.Fatalf("an allocation on one fork moved the other's allocator from %+v to %+v", before, after)
	}

	if n := testing.AllocsPerRun(20, func() {
		core.Fork(tmpl.Snapshot, core.BootOptions{SkipReport: true}).Shutdown()
	}); n > 100 {
		t.Errorf("a fork of the fleet image allocates %.0f times, want at most 100", n)
	}
}
