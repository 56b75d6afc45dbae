package switcher_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

func boot(t *testing.T, img *firmware.Image) *core.System {
	t.Helper()
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func run(t *testing.T, s *core.System) {
	t.Helper()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestTrustedStackDepthLimit: exceeding the static trusted-stack frame
// budget faults the caller.
func TestTrustedStackDepthLimit(t *testing.T) {
	img := core.NewImage("depth")
	img.AddCompartment(&firmware.Compartment{
		Name: "ping", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "pong", Entry: "go"}},
		Exports: []*firmware.Export{{Name: "go", MinStack: 16,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, err := ctx.Call("pong", "go", args[0])
				if err != nil {
					return api.EV(api.ErrUnwound)
				}
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "pong", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "ping", Entry: "go"}},
		Exports: []*firmware.Export{{Name: "go", MinStack: 16,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, err := ctx.Call("ping", "go", args[0])
				if err != nil {
					return api.EV(api.ErrUnwound)
				}
				return api.EV(api.OK)
			}}},
	})
	var topErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "ping", Entry: "go"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, topErr = ctx.Call("ping", "go", api.W(0))
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 8192, TrustedStackFrames: 6})
	s := boot(t, img)
	run(t, s)
	// The recursion dies at the frame limit; the fault is an unwind at
	// some depth that propagates as error returns.
	if topErr == nil {
		// The top call returned a value: the inner frames reported
		// ErrUnwound up the chain, which is also acceptable containment.
		return
	}
	if !errors.Is(topErr, api.ErrUnwound) {
		t.Fatalf("top-level error = %v", topErr)
	}
}

// TestHazardSlotsClearOnCall: ephemeral claims last only until the next
// compartment call (§3.2.5).
func TestHazardSlotsClearOnCall(t *testing.T) {
	img := core.NewImage("hazard")
	img.AddCompartment(&firmware.Compartment{
		Name: "other", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "nop", MinStack: 0,
			Entry: func(ctx api.Context, args []api.Value) []api.Value { return nil }}},
	})
	var afterClaim, afterCall int
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "other", Entry: "nop"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				g := cap.New(0x100, 0x200, 0x100, cap.PermData)
				ctx.EphemeralClaim(g)
				afterClaim = len(kernelOf(ctx).HazardSlots())
				if _, err := ctx.Call("other", "nop"); err != nil {
					t.Errorf("call: %v", err)
				}
				afterCall = len(kernelOf(ctx).HazardSlots())
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	kernel = s.Kernel
	run(t, s)
	if afterClaim != 1 {
		t.Fatalf("hazard slots after claim = %d, want 1", afterClaim)
	}
	if afterCall != 0 {
		t.Fatalf("hazard slots after call = %d, want 0", afterCall)
	}
}

// kernel gives test entries access to the booted kernel (the tests play
// the role of TCB code here).
var kernel *switcher.Kernel

func kernelOf(ctx api.Context) *switcher.Kernel { return kernel }

// TestStackWatermark: the dynamic stack-usage tool reports the deepest
// stack extent (§3.2.5).
func TestStackWatermark(t *testing.T) {
	img := core.NewImage("watermark")
	img.AddCompartment(&firmware.Compartment{
		Name: "deep", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "fn", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value { return nil }}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "deep", Entry: "fn"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("deep", "fn")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	th := s.Kernel.Thread("t")
	if got := th.StackWatermark(); got != 256+512 {
		t.Fatalf("watermark = %d, want 768", got)
	}
}

// TestCallerIdentity: the trusted stack reports the true caller even
// through nested calls.
func TestCallerIdentity(t *testing.T) {
	img := core.NewImage("caller")
	var seen []string
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "who", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				seen = append(seen, ctx.Caller())
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "middle", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "who"}},
		Exports: []*firmware.Export{{Name: "relay", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("svc", "who")
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "who"},
			{Kind: firmware.ImportCall, Target: "middle", Entry: "relay"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("svc", "who")
				_, _ = ctx.Call("middle", "relay")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if len(seen) != 2 || seen[0] != "main" || seen[1] != "middle" {
		t.Fatalf("callers = %v, want [main middle]", seen)
	}
}

// TestLibraryPostureDefersPreemption: a disabling library sentry runs the
// whole function without preemption, and posture is restored after.
func TestLibraryPostureDefersPreemption(t *testing.T) {
	img := core.NewImage("posture")
	var switchesDuring uint64
	img.AddLibrary(&firmware.Library{
		Name: "critlib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "critical", Posture: firmware.PostureDisabled,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				before := kernel.Stats().ContextSwitches
				// Lots of work with a tiny quantum: without the posture
				// this would be preempted many times.
				for i := 0; i < 50; i++ {
					ctx.Work(1000)
				}
				switchesDuring = kernel.Stats().ContextSwitches - before
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportLib, Target: "critlib", Entry: "critical"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.LibCall("critlib", "critical")
				return nil
			}}},
	})
	// A competing thread that would preempt if interrupts were enabled.
	img.AddCompartment(&firmware.Compartment{
		Name: "noise", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "spin", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 50; i++ {
					ctx.Work(1000)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "noise", Compartment: "noise", Entry: "spin",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	kernel = s.Kernel
	s.Sched.SetQuantum(2000)
	run(t, s)
	if switchesDuring != 0 {
		t.Fatalf("context switches during IRQ-deferred library call = %d, want 0", switchesDuring)
	}
}

// TestCompartmentExportPosture: an entry point annotated with the
// interrupts-disabled posture runs without preemption, and the posture is
// restored on return (§2.1's forward/backward sentry semantics).
func TestCompartmentExportPosture(t *testing.T) {
	img := core.NewImage("export-posture")
	var switchesDuring, switchesAfter uint64
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "critical", MinStack: 64,
			Posture: firmware.PostureDisabled,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				before := kernel.Stats().ContextSwitches
				for i := 0; i < 40; i++ {
					ctx.Work(1000)
				}
				switchesDuring = kernel.Stats().ContextSwitches - before
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "critical"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("svc", "critical")
				// Back in the caller: interrupts are enabled again.
				before := kernel.Stats().ContextSwitches
				for i := 0; i < 40; i++ {
					ctx.Work(1000)
				}
				switchesAfter = kernel.Stats().ContextSwitches - before
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "noise", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "spin", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 100; i++ {
					ctx.Work(1000)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "noise", Compartment: "noise", Entry: "spin",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	kernel = s.Kernel
	s.Sched.SetQuantum(1500)
	run(t, s)
	if switchesDuring != 0 {
		t.Fatalf("switches during IRQ-disabled entry = %d, want 0", switchesDuring)
	}
	if switchesAfter == 0 {
		t.Fatal("posture not restored: no preemption after the call")
	}
}

// TestNestedDuring: scoped handlers nest lexically; the innermost matching
// handler wins.
func TestNestedDuring(t *testing.T) {
	img := core.NewImage("nested-during")
	var order []string
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.During(func() {
					ctx.During(func() {
						ctx.Fault(hw.TrapBoundsViolation, "inner")
					}, func(tr *hw.Trap) { order = append(order, "inner-handler") })
					order = append(order, "after-inner")
					ctx.Fault(hw.TrapTagViolation, "outer")
				}, func(tr *hw.Trap) { order = append(order, "outer-handler:"+tr.Code.String()) })
				order = append(order, "done")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	want := []string{"inner-handler", "after-inner", "outer-handler:tag violation", "done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestHandlerRetry: a global handler can request re-execution of the
// entry (the "correct the fault and resume" policy).
func TestHandlerRetry(t *testing.T) {
	img := core.NewImage("retry")
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "flaky", CodeSize: 128, DataSize: 0,
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				attempts++
				if attempts%2 == 1 {
					ctx.Fault(hw.TrapIllegalInstruction, "transient")
				}
				return api.EV(api.OK)
			}}},
	})
	var err error
	var rets []api.Value
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "flaky", Entry: "work"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rets, err = ctx.Call("flaky", "work")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	if err != nil {
		t.Fatalf("call after retry: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if api.ErrnoOf(rets) != api.OK {
		t.Fatalf("rets = %v", rets)
	}
}

// TestCallAllocatesNothing pins the two-compartment call of Fig. 6a at
// zero host allocations, with and without arguments, with a two-register
// return, and a library call likewise: the switcher reuses the entry
// context of each trusted-stack depth, the arguments and multi-register
// returns travel in the thread's registers, and EV's errno returns are
// shared.
func TestCallAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(ctx api.Context) error
	}{
		{"no-arguments", func(ctx api.Context) error {
			_, err := ctx.Call("server", "fn")
			return err
		}},
		{"three-arguments-errno-return", func(ctx api.Context) error {
			rets, err := ctx.Call("server", "errno", api.W(1), api.W(2), api.C(ctx.Globals()))
			if err == nil && api.ErrnoOf(rets) != api.OK {
				err = api.ErrnoOf(rets)
			}
			return err
		}},
		{"two-register-return", func(ctx api.Context) error {
			rets, err := ctx.Call("server", "pair", api.W(1))
			if err == nil && (len(rets) != 2 || rets[1] != api.W(2)) {
				err = fmt.Errorf("pair returned %v", rets)
			}
			return err
		}},
		{"library-call", func(ctx api.Context) error {
			if rets := ctx.LibCall("lib", "is7", api.W(7)); api.ErrnoOf(rets) != api.OK {
				return api.ErrnoOf(rets)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := core.NewImage("allocs")
			img.AddLibrary(&firmware.Library{
				Name: "lib", CodeSize: 64,
				Funcs: []*firmware.Export{{Name: "is7",
					Entry: func(_ api.Context, args []api.Value) []api.Value {
						if len(args) != 1 || args[0] != api.W(7) {
							return api.EV(api.ErrInvalid)
						}
						return api.EV(api.OK)
					}}},
			})
			img.AddCompartment(&firmware.Compartment{
				Name: "server", CodeSize: 128,
				Exports: []*firmware.Export{
					{Name: "fn", Entry: func(api.Context, []api.Value) []api.Value { return nil }},
					{Name: "errno", Entry: func(_ api.Context, args []api.Value) []api.Value {
						if len(args) != 3 {
							return api.EV(api.ErrInvalid)
						}
						return api.EV(api.OK)
					}},
					{Name: "pair", Entry: func(ctx api.Context, args []api.Value) []api.Value {
						return ctx.Ret(api.W(uint32(api.OK)), api.W(args[0].Word+1))
					}},
				},
			})
			var allocs float64
			var callErr error
			img.AddCompartment(&firmware.Compartment{
				Name: "client", CodeSize: 128,
				Imports: []firmware.Import{
					{Kind: firmware.ImportCall, Target: "server", Entry: "fn"},
					{Kind: firmware.ImportCall, Target: "server", Entry: "errno"},
					{Kind: firmware.ImportCall, Target: "server", Entry: "pair"},
					{Kind: firmware.ImportLib, Target: "lib", Entry: "is7"},
				},
				Exports: []*firmware.Export{{Name: "main", MinStack: 128,
					Entry: func(ctx api.Context, _ []api.Value) []api.Value {
						allocs = testing.AllocsPerRun(100, func() {
							if err := tc.call(ctx); err != nil {
								callErr = err
							}
						})
						return nil
					}}},
			})
			img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
				Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
			run(t, boot(t, img))
			if callErr != nil {
				t.Fatal(callErr)
			}
			if allocs != 0 {
				t.Fatalf("the call allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestHeldContextSurvivesNestedCalls holds an entry's context and its
// arguments across nested calls: after a call one trusted-stack frame
// deeper, a second call at that depth, a library call, and a call whose
// callee faults and is retried by its error handler, the held context
// still reports its own compartment and caller, every nested entry sees
// its own, and every entry's args still hold exactly what its caller
// passed. Each nested call has a different arity from its caller's, so a
// callee whose arguments overwrote its caller's would show here. The
// sequence runs twice: first while the thread's argument stack grows,
// then with every frame's arguments in the one array the nested calls
// write.
func TestHeldContextSurvivesNestedCalls(t *testing.T) {
	img := core.NewImage("held")
	var seen []string
	record := func(ctx api.Context) { seen = append(seen, ctx.Compartment()+"<"+ctx.Caller()) }
	var failure string
	fail := func(msg string) {
		if failure == "" {
			failure = msg
		}
	}
	// argsOf builds n arguments tagged with n and seed, so a callee can
	// tell from its first argument what its caller passed.
	argsOf := func(n, seed int) []api.Value {
		out := make([]api.Value, n)
		for i := range out {
			out[i] = api.W(uint32(n<<16 | seed<<8 | i))
		}
		return out
	}
	// checkArgs re-reads an entry's args against what argsOf built.
	checkArgs := func(where string, args []api.Value) {
		if len(args) == 0 {
			fail(where + ": no arguments")
			return
		}
		n, seed := int(args[0].Word>>16), int(args[0].Word>>8&0xff)
		if len(args) != n {
			fail(fmt.Sprintf("%s: len(args) = %d, its caller passed %d", where, len(args), n))
			return
		}
		for i, a := range args {
			if a != api.W(uint32(n<<16|seed<<8|i)) {
				fail(fmt.Sprintf("%s: args[%d] = %#x, its caller passed %#x", where, i, a.Word, n<<16|seed<<8|i))
				return
			}
		}
	}
	img.AddLibrary(&firmware.Library{
		Name: "lib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "fn",
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				checkArgs("lib.fn", args)
				return nil
			}}},
	})
	libImport := firmware.Import{Kind: firmware.ImportLib, Target: "lib", Entry: "fn"}
	img.AddCompartment(&firmware.Compartment{
		Name: "inner", CodeSize: 64,
		Imports: []firmware.Import{libImport},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				record(ctx)
				checkArgs("inner.work", args)
				ctx.LibCall("lib", "fn", argsOf(len(args)+2, 1)...)
				checkArgs("inner.work after a library call", args)
				return api.EV(api.OK)
			}}},
	})
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "flaky", CodeSize: 64,
		Imports: []firmware.Import{libImport},
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			record(ctx)
			ctx.LibCall("lib", "fn", argsOf(5, 2)...)
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				record(ctx)
				checkArgs(fmt.Sprintf("flaky.work, attempt %d", attempts+1), args)
				ctx.LibCall("lib", "fn", argsOf(1, 3)...)
				checkArgs("flaky.work after a library call", args)
				attempts++
				if attempts%2 == 1 {
					ctx.Fault(hw.TrapIllegalInstruction, "transient")
				}
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "outer", CodeSize: 64,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "inner", Entry: "work"},
			{Kind: firmware.ImportCall, Target: "flaky", Entry: "work"},
		},
		Exports: []*firmware.Export{{Name: "run", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				held := ctx
				checkArgs("outer.run", args)
				for i, c := range []struct {
					target string
					arity  int
				}{{"inner", 3}, {"inner", 1}, {"flaky", 4}} {
					if _, err := ctx.Call(c.target, "work", argsOf(c.arity, 4+i)...); err != nil {
						fail(err.Error())
					}
					if got := held.Compartment() + "<" + held.Caller(); got != "outer<main" {
						fail("after a call to " + c.target + " the held context reports " + got)
					}
					checkArgs("outer.run after a call to "+c.target, args)
				}
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "outer", Entry: "run"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				held := ctx
				for seed := 9; seed <= 10; seed++ {
					if _, err := ctx.Call("outer", "run", argsOf(2, seed)...); err != nil {
						fail(err.Error())
					}
					if got := held.Compartment() + "<" + held.Caller(); got != "main<" {
						fail("the thread's held context reports " + got)
					}
				}
				if len(args) != 0 {
					fail(fmt.Sprintf("the thread's entry got %d arguments, want none", len(args)))
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	if failure != "" {
		t.Fatal(failure)
	}
	pass := []string{"inner<outer", "inner<outer", "flaky<outer", "flaky<outer", "flaky<outer"}
	if want := append(pass, pass...); !slices.Equal(seen, want) {
		t.Fatalf("nested contexts reported %v, want %v", seen, want)
	}
	if attempts != 4 {
		t.Fatalf("flaky ran %d times, want a fault and one retry per pass", attempts)
	}
}

// TestTrappedCallsPopTheirArguments: a call that traps before it
// returns, here one to an entry the caller does not import, leaves its
// argument registers pushed; a scoped handler that catches the trap and
// an error handler's retry both drop them, so the caller's next call
// reuses the same registers instead of stacking above the leftovers.
func TestTrappedCallsPopTheirArguments(t *testing.T) {
	img := core.NewImage("trapped-args")
	var regs []*api.Value
	img.AddCompartment(&firmware.Compartment{
		Name: "inner", CodeSize: 64,
		Exports: []*firmware.Export{{Name: "work",
			Entry: func(_ api.Context, args []api.Value) []api.Value {
				regs = append(regs, &args[0])
				return nil
			}}},
	})
	innerWork := firmware.Import{Kind: firmware.ImportCall, Target: "inner", Entry: "work"}
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "mid", CodeSize: 64,
		Imports: []firmware.Import{innerWork},
		ErrorHandler: func(api.Context, *hw.Trap) api.HandlerDecision {
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{{Name: "run", MinStack: 64,
			Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				if attempts++; attempts == 1 {
					ctx.Call("nosuch", "entry", api.W(2))
				}
				ctx.Call("inner", "work", api.W(1))
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64,
		Imports: []firmware.Import{innerWork, {Kind: firmware.ImportCall, Target: "mid", Entry: "run"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				ctx.Call("inner", "work", api.W(1))
				ctx.During(func() { ctx.Call("nosuch", "entry", api.W(2)) }, func(*hw.Trap) {})
				ctx.Call("inner", "work", api.W(1))
				ctx.Call("mid", "run")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	run(t, boot(t, img))
	if len(regs) != 3 || attempts != 2 {
		t.Fatalf("inner ran %d times and mid %d times, want 3 and 2", len(regs), attempts)
	}
	if regs[1] != regs[0] || regs[2] != regs[0] {
		t.Fatal("a call after a trapped call got other argument registers than the one before it")
	}
}

// TestZeroingOffLeaksStack is the negative control for the ablation
// switch: with stack scrubbing disabled, a callee reads the previous
// callee's secrets — demonstrating that the Fig. 6a zeroing cost is
// exactly what buys the isolation.
func TestZeroingOffLeaksStack(t *testing.T) {
	leak := runLeakProbe(t, func(k *switcher.Kernel) { k.SetStackZeroing(false) })
	if leak != 0xdeadbeef {
		t.Fatalf("leak probe read %#x; expected the secret with zeroing off", leak)
	}
}

// TestLazyZeroingStillIsolates: the high-water-mark optimization elides
// only *redundant* zeroing — the reader still sees zeros.
func TestLazyZeroingStillIsolates(t *testing.T) {
	leak := runLeakProbe(t, func(k *switcher.Kernel) { k.SetLazyStackZeroing(true) })
	if leak != 0 {
		t.Fatalf("lazy zeroing leaked %#x", leak)
	}
}

// runLeakProbe runs the writer/reader stack experiment with the given
// kernel configuration and returns what the reader saw.
func runLeakProbe(t *testing.T, configure func(*switcher.Kernel)) uint32 {
	t.Helper()
	img := core.NewImage("leakprobe")
	var leak uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "writer", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "write", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				secret := ctx.StackAlloc(16)
				ctx.Store32(secret, 0xdeadbeef)
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "reader", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "read", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				buf := ctx.StackAlloc(16)
				leak = ctx.Load32(buf)
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "writer", Entry: "write"},
			{Kind: firmware.ImportCall, Target: "reader", Entry: "read"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("writer", "write")
				_, _ = ctx.Call("reader", "read")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	configure(s.Kernel)
	run(t, s)
	return leak
}

// TestStackZeroedBetweenCalls: a callee cannot read the previous callee's
// stack leftovers (caller- and callee-leak prevention, §3.1.2).
func TestStackZeroedBetweenCalls(t *testing.T) {
	img := core.NewImage("stackzero")
	var leak uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "writer", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "write", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				secret := ctx.StackAlloc(16)
				ctx.Store32(secret, 0xdeadbeef)
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "reader", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "read", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				buf := ctx.StackAlloc(16)
				leak = ctx.Load32(buf)
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "writer", Entry: "write"},
			{Kind: firmware.ImportCall, Target: "reader", Entry: "read"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("writer", "write")
				_, _ = ctx.Call("reader", "read")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	if leak == 0xdeadbeef {
		t.Fatal("callee read the previous callee's stack secret")
	}
	if leak != 0 {
		t.Fatalf("fresh stack frame not zeroed: %#x", leak)
	}
}
