package compartment_test

import (
	"errors"
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

type svcState struct {
	connections int
}

// buildRebootImage constructs a service compartment with heap state, a
// micro-rebooting error handler, and two client threads: one that parks
// inside the service, one that triggers a crash.
func buildRebootImage(t *testing.T) (*firmware.Image, *struct {
	parkedErr   error
	afterReboot api.Errno
	stateAfter  int
	quotaFree   uint32
}) {
	img := core.NewImage("microreboot")
	res := &struct {
		parkedErr   error
		afterReboot api.Errno
		stateAfter  int
		quotaFree   uint32
	}{}

	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 1024, DataSize: 64,
		GlobalsInit:  []byte{0xAA, 0xBB, 0xCC, 0xDD},
		AllocCaps:    []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:      append(alloc.Imports(), sched.Imports()...),
		State:        func() interface{} { return &svcState{} },
		ErrorHandler: compartment.RebootHandler("default", nil),
		Exports: []*firmware.Export{
			{Name: "connect", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					st := ctx.State().(*svcState)
					st.connections++
					if _, errno := (alloc.Client{}).Malloc(ctx, 256); errno != api.OK {
						return api.EV(errno)
					}
					return api.EV(api.OK)
				}},
			{Name: "park", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					// Block forever on a futex word nobody wakes; only a
					// forced unwind gets us out.
					word := ctx.Globals().WithAddress(ctx.Globals().Base() + 8)
					_, _ = ctx.Call(sched.Name, sched.EntryFutexWait,
						api.C(word), api.W(0), api.W(0))
					// If we get here the wait returned; touch memory so a
					// pending eviction faults us out.
					ctx.Work(1)
					return api.EV(api.OK)
				}},
			{Name: "crash", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					st := ctx.State().(*svcState)
					st.connections += 100
					ctx.Fault(hw.TrapIllegalInstruction, "ping of death")
					return nil
				}},
			{Name: "inspect", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					st := ctx.State().(*svcState)
					res.stateAfter = st.connections
					free, _ := (alloc.Client{}).QuotaRemaining(ctx)
					res.quotaFree = free
					return api.EV(api.OK)
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "clients", CodeSize: 512, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "connect"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "park"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "inspect"},
		},
		Exports: []*firmware.Export{
			{Name: "parker", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					_, res.parkedErr = ctx.Call("svc", "park")
					return nil
				}},
			{Name: "crasher", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					_, _ = ctx.Call("svc", "connect")
					_, _ = ctx.Call("svc", "connect")
					ctx.Yield() // let the parker get inside svc
					_, err := ctx.Call("svc", "crash")
					if !errors.Is(err, api.ErrUnwound) {
						t.Errorf("crash call: %v, want unwound", err)
					}
					// After the micro-reboot, the service must accept new
					// calls with pristine state.
					rets, err := ctx.Call("svc", "connect")
					if err != nil {
						res.afterReboot = api.ErrUnwound
					} else {
						res.afterReboot = api.ErrnoOf(rets)
					}
					_, _ = ctx.Call("svc", "inspect")
					return nil
				}},
		},
	})
	img.AddThread(&firmware.Thread{Name: "parker", Compartment: "clients", Entry: "parker",
		Priority: 2, StackSize: 2048, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "crasher", Compartment: "clients", Entry: "crasher",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	return img, res
}

func TestMicroReboot(t *testing.T) {
	img, res := buildRebootImage(t)
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if n := s.Kernel.Comp("svc").Reboots(); n != 1 {
		t.Fatalf("reboots = %d, want 1", n)
	}
	// Step 2: the parked thread was torn out of the compartment.
	if !errors.Is(res.parkedErr, api.ErrUnwound) {
		t.Fatalf("parked thread saw %v, want forced unwind", res.parkedErr)
	}
	// Step 3: the heap quota was fully released, then one new connect
	// allocated 256 bytes again.
	if res.quotaFree != 8192-256 {
		t.Fatalf("quota free = %d, want %d", res.quotaFree, 8192-256)
	}
	// Step 4: the Go-level state was rebuilt (the 100 from crash and the 2
	// pre-crash connects are gone; only the post-reboot connect remains).
	if res.stateAfter != 1 {
		t.Fatalf("connections after reboot = %d, want 1", res.stateAfter)
	}
	// The service accepts calls after the reboot.
	if res.afterReboot != api.OK {
		t.Fatalf("post-reboot connect = %v", res.afterReboot)
	}
	// Globals were restored from the boot snapshot.
	comp := s.Kernel.Comp("svc")
	g, err := s.Board.Core.Mem.LoadBytes(comp.Globals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 0xAA || g[3] != 0xDD {
		t.Fatalf("globals after reboot = %x", g)
	}
}

// TestRebooterServesEveryMachine boots one image as two machines and
// runs each in turn, for both callers of the micro-reboot: each reboot
// runs on the kernel of the machine it reboots, and each kernel counts
// its own one reboot. Through the error handler, each run unwinds its
// own parked thread. Through the watchdog, each run evicts its own hung
// worker, and the other machine's clock does not move.
func TestRebooterServesEveryMachine(t *testing.T) {
	t.Run("handler", func(t *testing.T) {
		img, res := buildRebootImage(t)
		systems := bootMachines(t, img, 2)
		for i, s := range systems {
			res.parkedErr = nil
			if err := s.Run(nil); err != nil {
				t.Fatalf("machine %d: Run: %v", i, err)
			}
			if !errors.Is(res.parkedErr, api.ErrUnwound) {
				t.Fatalf("machine %d: parked thread saw %v, want forced unwind", i, res.parkedErr)
			}
		}
		checkOneRebootEach(t, systems, "svc")
	})
	t.Run("watchdog", func(t *testing.T) {
		systems := bootMachines(t, buildHungImage("default"), 2)
		for i, s := range systems {
			other := systems[1-i]
			otherCycles := other.Cycles()
			worker := runUntilExited(t, s, "victim-worker")
			if f := worker.ExitFault(); f == nil || f.Code != hw.TrapForcedUnwind {
				t.Errorf("machine %d: hung worker %v, fault %v, want evicted by a forced unwind",
					i, worker.State(), f)
			}
			if c := other.Cycles(); c != otherCycles {
				t.Errorf("running machine %d moved machine %d's clock from %d to %d cycles",
					i, 1-i, otherCycles, c)
			}
		}
		checkOneRebootEach(t, systems, "victim")
	})
}

// runUntilExited runs s until its thread name exits, or for at most
// 20 M cycles.
func runUntilExited(t *testing.T, s *core.System, name string) *switcher.Thread {
	t.Helper()
	th := s.Kernel.Thread(name)
	deadline := s.Cycles() + 20_000_000
	if err := s.Run(func() bool {
		return th.State() == switcher.StateExited || s.Cycles() >= deadline
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return th
}

// TestFailedReleaseKeepsGuardUp: when step 3 cannot release the heap,
// here because the named capability is a static sealed object the
// allocator refuses, the reboot stops with the compartment's gates still
// closed, from an error handler and from a watchdog alike. Nothing
// counts as a reboot, and the handler emits no KindReboot, so the
// fault's crash report is not marked as escalated to one.
func TestFailedReleaseKeepsGuardUp(t *testing.T) {
	t.Run("handler", func(t *testing.T) {
		img := core.NewImage("decoy")
		img.AddCompartment(&firmware.Compartment{
			Name: "svc", CodeSize: 256, DataSize: 16,
			SealTypes:    []string{"kind"},
			StaticSealed: []firmware.StaticSealedObject{{Name: "decoy", SealType: "kind", Size: 8}},
			Imports:      alloc.Imports(),
			ErrorHandler: compartment.RebootHandler("decoy", nil),
			Exports: []*firmware.Export{
				{Name: "crash", MinStack: 256,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						ctx.Fault(hw.TrapIllegalInstruction, "boom")
						return nil
					}},
				{Name: "ping", MinStack: 64,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						return api.EV(api.OK)
					}},
			},
		})
		var after error
		img.AddCompartment(&firmware.Compartment{
			Name: "client", CodeSize: 128,
			Imports: []firmware.Import{
				{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"},
				{Kind: firmware.ImportCall, Target: "svc", Entry: "ping"},
			},
			Exports: []*firmware.Export{{Name: "main", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					_, _ = ctx.Call("svc", "crash")
					_, after = ctx.Call("svc", "ping")
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
			Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
		s := bootMachines(t, img, 1)[0]
		rec := s.EnableFlightRecorder(1 << 10)
		runUntilExited(t, s, "t")
		if !errors.Is(after, api.ErrCompartmentBusy) {
			t.Errorf("call after the failed reboot: %v, want busy", after)
		}
		checkGuardUp(t, s, "svc")
		if reps := rec.Reports(); len(reps) != 1 || reps[0].Reboot {
			t.Errorf("crash reports %+v, want one, not escalated to a reboot", reps)
		}
	})
	t.Run("watchdog", func(t *testing.T) {
		s := bootMachines(t, buildHungImage("decoy"), 1)[0]
		worker := runUntilExited(t, s, "victim-worker")
		if f := worker.ExitFault(); f == nil || f.Code != hw.TrapForcedUnwind {
			t.Errorf("hung worker %v, fault %v, want evicted by a forced unwind", worker.State(), f)
		}
		checkGuardUp(t, s, "victim")
	})
}

// checkGuardUp requires comp's reset guard to be up with no completed
// reboot counted.
func checkGuardUp(t *testing.T, s *core.System, comp string) {
	t.Helper()
	c := s.Kernel.Comp(comp)
	if !c.Resetting() || c.Reboots() != 0 {
		t.Errorf("%s: resetting %v after %d reboots, want the guard up and none counted",
			comp, c.Resetting(), c.Reboots())
	}
}

// bootMachines boots img n times, each System shut down at the test's end.
func bootMachines(t *testing.T, img *firmware.Image, n int) []*core.System {
	t.Helper()
	var systems []*core.System
	for i := 0; i < n; i++ {
		s, err := core.Boot(img)
		if err != nil {
			t.Fatalf("Boot %d: %v", i, err)
		}
		t.Cleanup(s.Shutdown)
		systems = append(systems, s)
	}
	return systems
}

// checkOneRebootEach requires every machine's kernel to count exactly one
// micro-reboot of comp.
func checkOneRebootEach(t *testing.T, systems []*core.System, comp string) {
	t.Helper()
	for i, s := range systems {
		if n := s.Kernel.Comp(comp).Reboots(); n != 1 {
			t.Errorf("machine %d: kernel counted %d reboots of %s, want 1", i, n, comp)
		}
	}
}

func TestRebootDuration(t *testing.T) {
	img, _ := buildRebootImage(t)
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// §5.3.3 reports a TCP/IP micro-reboot completing in 0.27 s; this tiny
	// service must reboot in well under that.
	ms := float64(s.Kernel.Comp("svc").HandlerCycles()) / float64(hw.DefaultHz) * 1000
	if ms <= 0 || ms > 270 {
		t.Fatalf("micro-reboot took %.3f ms", ms)
	}
}

func TestStateStoreSurvives(t *testing.T) {
	img := core.NewImage("statestore")
	compartment.AddStateStoreTo(img)
	var before, after uint32
	var restored api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 0,
		Imports: compartment.StateStoreImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if rets, err := ctx.Call(compartment.StateStore, compartment.FnStatePut,
					api.W(1), api.W(1234)); err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("put: %v", err)
					return nil
				}
				rets, err := ctx.Call(compartment.StateStore, compartment.FnStateGet, api.W(1))
				if err != nil {
					t.Errorf("get: %v", err)
					return nil
				}
				before = rets[1].AsWord()
				// Another compartment's namespace must be invisible: ask
				// for a key we never wrote (the isolation property).
				rets, err = ctx.Call(compartment.StateStore, compartment.FnStateGet, api.W(99))
				if err != nil {
					t.Errorf("get missing: %v", err)
					return nil
				}
				restored = api.ErrnoOf(rets)
				rets, err = ctx.Call(compartment.StateStore, compartment.FnStateGet, api.W(1))
				if err != nil {
					return nil
				}
				after = rets[1].AsWord()
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before != 1234 || after != 1234 {
		t.Fatalf("state = %d/%d, want 1234", before, after)
	}
	if restored != api.ErrNotFound {
		t.Fatalf("missing key = %v, want not-found", restored)
	}
}

// TestPersistentStateAcrossReboot: §3.2.6 step 5 — a component keeps its
// durable state in the state store, and it survives the component's own
// micro-reboot while everything else resets.
func TestPersistentStateAcrossReboot(t *testing.T) {
	img := core.NewImage("persist")
	compartment.AddStateStoreTo(img)
	var volatileAfter, durableAfter uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 512, DataSize: 16,
		Imports: compartment.StateStoreImports(),
		State:   func() interface{} { return &svcState{} },
		ErrorHandler: compartment.RebootHandler("", func(ctx api.Context, _ *hw.Trap) {
			// Before rebooting, persist what must survive.
			st := ctx.State().(*svcState)
			_, _ = ctx.Call(compartment.StateStore, compartment.FnStatePut,
				api.W(1), api.W(uint32(st.connections)))
		}),
		Exports: []*firmware.Export{
			{Name: "work", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.State().(*svcState).connections++
					return api.EV(api.OK)
				}},
			{Name: "crash", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Fault(hw.TrapIllegalInstruction, "boom")
					return nil
				}},
			{Name: "report", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					volatileAfter = uint32(ctx.State().(*svcState).connections)
					rets, err := ctx.Call(compartment.StateStore, compartment.FnStateGet, api.W(1))
					if err == nil && api.ErrnoOf(rets) == api.OK {
						durableAfter = rets[1].AsWord()
					}
					return api.EV(api.OK)
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "driver", CodeSize: 256, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "work"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "report"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 5; i++ {
					_, _ = ctx.Call("svc", "work")
				}
				_, _ = ctx.Call("svc", "crash")
				_, _ = ctx.Call("svc", "report")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "driver", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := s.Kernel.Comp("svc").Reboots(); n != 1 {
		t.Fatalf("reboots = %d", n)
	}
	if volatileAfter != 0 {
		t.Fatalf("volatile state survived the reboot: %d", volatileAfter)
	}
	if durableAfter != 5 {
		t.Fatalf("durable state = %d, want 5", durableAfter)
	}
}

func TestCallsDuringResetAreRefused(t *testing.T) {
	img := core.NewImage("busy")
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "ping", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				return api.EV(api.OK)
			}}},
	})
	var during error
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "ping"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, during = ctx.Call("svc", "ping")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	// Put the service into the resetting state before the thread runs.
	if err := s.Kernel.BeginReset("svc", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(during, api.ErrCompartmentBusy) {
		t.Fatalf("call during reset: %v, want busy", during)
	}
	// FinishReset reopens the gates.
	if err := s.Kernel.FinishReset("svc"); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Comp("svc").Resetting() {
		t.Fatal("compartment still resetting after FinishReset")
	}
}
