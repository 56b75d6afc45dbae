package compartment_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// TestWatchdogRecoversHungCompartment: a compartment livelocks — no trap,
// no error handler — and the watchdog reboots it from the outside: the
// spinning thread is evicted, the heap released, and service restored.
func TestWatchdogRecoversHungCompartment(t *testing.T) {
	img := core.NewImage("watchdog")
	wd := &compartment.Watchdog{
		Targets: []compartment.WatchdogTarget{{
			Compartment: "victim", Quota: "default",
		}},
		PeriodCycles: 500_000,
		StallChecks:  3,
	}

	heartbeat := compartment.HeartbeatName("victim")
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 512, DataSize: 16,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   append(alloc.Imports(), sched.Imports()...),
		Exports: []*firmware.Export{
			{Name: "work", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					// Normal duty: beat, allocate, compute... then the
					// bug: a livelock that stops the heartbeat.
					cl := alloc.Client{}
					for i := 0; ; i++ {
						compartment.Beat(ctx, heartbeat)
						if _, errno := cl.Malloc(ctx, 128); errno != api.OK {
							return api.EV(errno)
						}
						ctx.Work(100_000)
						if i == 4 {
							for { // the hang: no beats, no traps
								ctx.Work(50_000)
							}
						}
					}
				}},
			{Name: "ping", MinStack: 128,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					return api.EV(api.OK)
				}},
		},
	})
	wd.AddTo(img)

	var pingAfter api.Errno = 99
	var quotaAfter uint32
	probed := false
	img.AddCompartment(&firmware.Compartment{
		Name: "prober", CodeSize: 256, DataSize: 0,
		Imports: append([]firmware.Import{
			{Kind: firmware.ImportCall, Target: "victim", Entry: "ping"},
			{Kind: firmware.ImportSealed, Target: "victim", Entry: "default"},
			{Kind: firmware.ImportCall, Target: alloc.Name, Entry: alloc.EntryQuotaRemaining},
		}, sched.Imports()...),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// Wait long enough for the hang and the recovery.
				victim := switcher.KernelOf(ctx).Comp("victim")
				for i := 0; i < 20; i++ {
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(1_000_000))
					if victim.Reboots() > 0 {
						break
					}
				}
				rets, err := ctx.Call("victim", "ping")
				if err != nil {
					pingAfter = api.ErrUnwound
				} else {
					pingAfter = api.ErrnoOf(rets)
				}
				// The victim's quota was fully released (step 3): probe it
				// with the delegated capability.
				q := ctx.SealedImport("victim.default")
				rets, err = ctx.Call(alloc.Name, alloc.EntryQuotaRemaining, api.C(q))
				if err == nil && api.ErrnoOf(rets) == api.OK {
					quotaAfter = rets[1].AsWord()
				}
				probed = true
				return nil
			}}},
	})

	img.AddThread(&firmware.Thread{Name: "victim-worker", Compartment: "victim", Entry: "work",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	img.AddThread(&firmware.Thread{Name: "prober", Compartment: "prober", Entry: "main",
		Priority: 2, StackSize: 4096, TrustedStackFrames: 12})

	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	// The watchdog never exits: run until the prober is done and the
	// evicted worker has left.
	worker := s.Kernel.Thread("victim-worker")
	if err := s.Run(func() bool { return probed && worker.State() == switcher.StateExited }); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if s.Kernel.Comp("victim").Reboots() < 1 {
		t.Fatal("watchdog never fired")
	}
	if pingAfter != api.OK {
		t.Fatalf("victim unhealthy after recovery: %v", pingAfter)
	}
	if quotaAfter != 8192 {
		t.Fatalf("victim quota = %d after recovery, want fully released 8192", quotaAfter)
	}
	// The hung thread was evicted, not left spinning.
	if worker.State().String() != "exited" {
		t.Fatalf("hung thread state = %v", worker.State())
	}
	if worker.ExitFault() == nil || worker.ExitFault().Code != hw.TrapForcedUnwind {
		t.Fatalf("hung thread fault = %v, want forced unwind", worker.ExitFault())
	}
}

// buildHungImage builds a victim whose one worker beats its heartbeat
// once and then spins with no trap, watched by a watchdog that
// micro-reboots it once the heartbeat has stalled for three periods,
// releasing the heap of the victim's sealed object quota: "default", its
// allocation capability, or "decoy", a static sealed object the
// allocator refuses.
func buildHungImage(quota string) *firmware.Image {
	img := core.NewImage("hung")
	heartbeat := compartment.HeartbeatName("victim")
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 512, DataSize: 16,
		AllocCaps:    []firmware.AllocCap{{Name: "default", Quota: 4096}},
		SealTypes:    []string{"kind"},
		StaticSealed: []firmware.StaticSealedObject{{Name: "decoy", SealType: "kind", Size: 8}},
		Imports:      alloc.Imports(),
		Exports: []*firmware.Export{{Name: "work", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				compartment.Beat(ctx, heartbeat)
				for { // hang: no beats, no traps
					ctx.Work(50_000)
				}
			}}},
	})
	(&compartment.Watchdog{
		Targets:      []compartment.WatchdogTarget{{Compartment: "victim", Quota: quota}},
		PeriodCycles: 500_000,
		StallChecks:  3,
	}).AddTo(img)
	img.AddThread(&firmware.Thread{Name: "victim-worker", Compartment: "victim", Entry: "work",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	return img
}

// TestWatchdogRebootsOncePerHang: the watchdog reboots a hung target
// once per hang. The reboot evicts the hung worker, so the victim never
// beats again and is not rebooted again, however long the machine runs.
// A victim a caller enters again beats, hangs again, and is rebooted
// again, once per hang.
func TestWatchdogRebootsOncePerHang(t *testing.T) {
	t.Run("hung once", func(t *testing.T) {
		s := bootMachines(t, buildHungImage("default"), 1)[0]
		if err := s.RunFor(20_000_000); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if n := s.Kernel.Comp("victim").Reboots(); n != 1 {
			t.Errorf("watchdog rebooted the victim %d times in 20 M cycles, want 1", n)
		}
	})
	t.Run("hangs again", func(t *testing.T) {
		const hangs = 2
		img := core.NewImage("rehung")
		heartbeat := compartment.HeartbeatName("victim")
		img.AddCompartment(&firmware.Compartment{
			Name: "victim", CodeSize: 512, DataSize: 16,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
			Exports: []*firmware.Export{{Name: "work", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					compartment.Beat(ctx, heartbeat)
					for { // hang: no beats, no traps
						ctx.Work(50_000)
					}
				}}},
		})
		(&compartment.Watchdog{
			Targets:      []compartment.WatchdogTarget{{Compartment: "victim", Quota: "default"}},
			PeriodCycles: 500_000,
			StallChecks:  3,
		}).AddTo(img)
		unwound := 0
		img.AddCompartment(&firmware.Compartment{
			Name: "caller", CodeSize: 128,
			Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "victim", Entry: "work"}},
			Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					for i := 0; i < hangs; i++ {
						if _, err := ctx.Call("victim", "work"); err != nil {
							unwound++
						}
					}
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "caller", Compartment: "caller", Entry: "main",
			Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
		s := bootMachines(t, img, 1)[0]
		if err := s.RunFor(20_000_000); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if unwound != hangs {
			t.Fatalf("%d of the %d hung calls were unwound", unwound, hangs)
		}
		if n := s.Kernel.Comp("victim").Reboots(); n != hangs {
			t.Errorf("watchdog rebooted the victim %d times, want one per hang (%d)", n, hangs)
		}
	})
}
