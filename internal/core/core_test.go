package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/token"
)

// boot builds and boots an image, failing the test on error and reaping
// threads at cleanup.
func boot(t *testing.T, img *firmware.Image) *System {
	t.Helper()
	s, err := Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

type probe struct {
	calls  []string
	values []uint32
}

func TestCompartmentCallRoundTrip(t *testing.T) {
	img := NewImage("roundtrip")
	p := &probe{}
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 512, DataSize: 64,
		Exports: []*firmware.Export{{
			Name: "double", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(10)
				return []api.Value{api.W(args[0].AsWord() * 2)}
			},
		}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 512, DataSize: 64,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "double"}},
		Exports: []*firmware.Export{{
			Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rets, err := ctx.Call("server", "double", api.W(21))
				if err != nil {
					t.Errorf("call failed: %v", err)
					return nil
				}
				p.values = append(p.values, rets[0].AsWord())
				return nil
			},
		}},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.values) != 1 || p.values[0] != 42 {
		t.Fatalf("values = %v, want [42]", p.values)
	}
}

func TestCallWithoutImportTraps(t *testing.T) {
	img := NewImage("no-import")
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "secret", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value { return nil }}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "attacker", CodeSize: 128, DataSize: 0,
		// No import of server.secret.
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("server", "secret")
				t.Error("call without import did not trap")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "attacker", Entry: "main",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	th := s.Kernel.Thread("t")
	if th.ExitFault() == nil || th.ExitFault().Code != hw.TrapPermitViolation {
		t.Fatalf("thread fault = %v, want permit violation", th.ExitFault())
	}
}

// TestDottedNamesRejected: "x.y" exporting "z" and "x" exporting "y.z"
// name two different entries that both read "x.y.z" in a sealed import,
// the audit's import list or a profiler label. An image that imports
// only x.y's z must not reach x's y.z, so Boot refuses dotted names.
func TestDottedNamesRejected(t *testing.T) {
	img := NewImage("dotted")
	nop := func(ctx api.Context, args []api.Value) []api.Value { return nil }
	img.AddCompartment(&firmware.Compartment{Name: "x.y", CodeSize: 128,
		Exports: []*firmware.Export{{Name: "z", MinStack: 64, Entry: nop}}})
	img.AddCompartment(&firmware.Compartment{Name: "x", CodeSize: 128,
		Exports: []*firmware.Export{{Name: "y.z", MinStack: 64, Entry: nop}}})
	var callErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "x.y", Entry: "z"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, callErr = ctx.Call("x", "y.z")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

	s, err := Boot(img)
	if err == nil {
		t.Cleanup(s.Shutdown)
		runErr := s.Run(nil)
		t.Fatalf("Boot accepted dotted names; app's call to x/y.z returned %v (run: %v, thread fault: %v)",
			callErr, runErr, s.Kernel.Thread("t").ExitFault())
	}
	for _, name := range []string{`"x.y"`, `"y.z"`} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Boot error %q does not name %s", err, name)
		}
	}
}

func TestFaultUnwindsToCaller(t *testing.T) {
	img := NewImage("unwind")
	var sawErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "buggy", CodeSize: 128, DataSize: 8,
		Exports: []*firmware.Export{{Name: "crash", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				g := ctx.Globals()
				ctx.Store32(g.WithAddress(g.Top()+100), 1) // out of bounds
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "caller", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "buggy", Entry: "crash"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, sawErr = ctx.Call("buggy", "crash")
				// The caller keeps running after the callee unwound.
				ctx.Work(5)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "caller", Entry: "main",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(sawErr, api.ErrUnwound) {
		t.Fatalf("caller saw %v, want ErrUnwound", sawErr)
	}
	if th := s.Kernel.Thread("t"); th.ExitFault() != nil {
		t.Fatalf("thread must exit cleanly, got %v", th.ExitFault())
	}
}

func TestGlobalErrorHandler(t *testing.T) {
	img := NewImage("handler")
	p := &probe{}
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 8,
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			p.calls = append(p.calls, "handler:"+tr.Code.String())
			return api.HandlerUnwind
		},
		Exports: []*firmware.Export{{Name: "crash", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "deliberate")
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "caller", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, err := ctx.Call("svc", "crash")
				if !errors.Is(err, api.ErrUnwound) {
					t.Errorf("err = %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "caller", Entry: "main",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.calls) != 1 || p.calls[0] != "handler:illegal instruction" {
		t.Fatalf("handler calls = %v", p.calls)
	}
}

func TestScopedHandler(t *testing.T) {
	img := NewImage("scoped")
	p := &probe{}
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 8,
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.During(func() {
					p.calls = append(p.calls, "body")
					ctx.Fault(hw.TrapBoundsViolation, "inner")
					p.calls = append(p.calls, "unreachable")
				}, func(tr *hw.Trap) {
					p.calls = append(p.calls, "caught:"+tr.Code.String())
				})
				p.calls = append(p.calls, "after")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "svc", Entry: "main",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"body", "caught:bounds violation", "after"}
	if len(p.calls) != 3 || p.calls[0] != want[0] || p.calls[1] != want[1] || p.calls[2] != want[2] {
		t.Fatalf("calls = %v, want %v", p.calls, want)
	}
}

func TestMallocFreeTemporalSafety(t *testing.T) {
	img := NewImage("temporal")
	var reloaded cap.Capability
	comp := &firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				obj, errno := cl.Malloc(ctx, 64)
				if errno != api.OK {
					t.Errorf("malloc: %v", errno)
					return nil
				}
				ctx.Store32(obj, 0xdead)
				// Stash the pointer in our globals.
				slot := ctx.Globals().WithAddress(ctx.Globals().Base())
				ctx.StoreCap(slot, obj)
				if errno := cl.Free(ctx, obj); errno != api.OK {
					t.Errorf("free: %v", errno)
				}
				// Reloading the stashed pointer after free must yield an
				// untagged capability (load filter, §2.1).
				reloaded = ctx.LoadCap(slot)
				return nil
			}}},
	}
	img.AddCompartment(comp)
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 6})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reloaded.Valid() {
		t.Fatal("capability to freed memory survived the load filter")
	}
}

func TestQuotaEnforced(t *testing.T) {
	img := NewImage("quota")
	var errnos []api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "greedy", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 1024}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				_, e1 := cl.Malloc(ctx, 512)
				_, e2 := cl.Malloc(ctx, 512)
				_, e3 := cl.Malloc(ctx, 512) // exceeds the 1 KiB quota
				errnos = append(errnos, e1, e2, e3)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "greedy", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 6})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errnos[0] != api.OK || errnos[1] != api.OK || errnos[2] != api.ErrNoMemory {
		t.Fatalf("errnos = %v", errnos)
	}
}

func TestHeapReuseAfterRevocation(t *testing.T) {
	img := NewImage("reuse")
	done := false
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 0,
		// Quota big enough for one object at a time; heap pressure forces
		// reuse through quarantine + revocation sweeps.
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 200 * 1024}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				// Each object is over a third of the heap: reuse is
				// impossible without completed revocation sweeps.
				for i := 0; i < 6; i++ {
					obj, errno := cl.Malloc(ctx, 80*1024)
					if errno != api.OK {
						t.Errorf("malloc %d: %v", i, errno)
						return nil
					}
					ctx.Store32(obj, uint32(i))
					if errno := cl.Free(ctx, obj); errno != api.OK {
						t.Errorf("free %d: %v", i, errno)
						return nil
					}
				}
				done = true
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 6})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("allocation loop did not complete")
	}
	if s.Alloc.Stats().SweepWaits == 0 {
		t.Fatal("expected the allocator to wait on revocation sweeps")
	}
}

func TestFutexHandoff(t *testing.T) {
	img := NewImage("futex")
	var order []string
	shared := &firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{
			{Name: "waiter", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					word := ctx.Globals().WithAddress(ctx.Globals().Base())
					order = append(order, "wait-start")
					rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
						api.C(word), api.W(0), api.W(0))
					if err != nil || api.ErrnoOf(rets) != api.OK {
						t.Errorf("futex_wait: %v %v", err, api.ErrnoOf(rets))
					}
					order = append(order, "woken")
					return nil
				}},
			{Name: "waker", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					word := ctx.Globals().WithAddress(ctx.Globals().Base())
					ctx.Yield() // let the waiter block first
					ctx.Store32(word, 1)
					order = append(order, "wake")
					rets, err := ctx.Call(sched.Name, sched.EntryFutexWake,
						api.C(word), api.W(1))
					if err != nil || rets[0].AsWord() != 1 {
						t.Errorf("futex_wake: %v %v", err, rets)
					}
					return nil
				}},
		},
	}
	img.AddCompartment(shared)
	img.AddThread(&firmware.Thread{Name: "waiter", Compartment: "app", Entry: "waiter",
		Priority: 2, StackSize: 1024, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "waker", Compartment: "app", Entry: "waker",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"wait-start", "wake", "woken"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestFutexTimeout(t *testing.T) {
	img := NewImage("futex-timeout")
	var got api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 16,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				word := ctx.Globals().WithAddress(ctx.Globals().Base())
				rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
					api.C(word), api.W(0), api.W(10_000))
				if err != nil {
					t.Errorf("futex_wait: %v", err)
				}
				got = api.ErrnoOf(rets)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != api.ErrTimeout {
		t.Fatalf("errno = %v, want timeout", got)
	}
}

func TestOpaqueObjects(t *testing.T) {
	img := NewImage("opaque")
	var leaked cap.Capability
	var payloadVal uint32
	// The service hands out opaque (sealed) state objects; callers cannot
	// touch the contents, only pass them back (§3.2.1).
	img.AddCompartment(&firmware.Compartment{
		Name: "tls", CodeSize: 512, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   append(alloc.Imports(), token.Imports()...),
		State:     func() interface{} { return &struct{ key cap.Capability }{} },
		Exports: []*firmware.Export{
			{Name: "connect", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					st := ctx.State().(*struct{ key cap.Capability })
					if !st.key.Valid() {
						k, errno := token.KeyNew(ctx)
						if errno != api.OK {
							return api.EV(errno)
						}
						st.key = k
					}
					sobj, errno := alloc.Client{}.MallocSealed(ctx, st.key, 32)
					if errno != api.OK {
						return api.EV(errno)
					}
					return []api.Value{api.W(uint32(api.OK)), api.C(sobj)}
				}},
			{Name: "send", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					st := ctx.State().(*struct{ key cap.Capability })
					payload, errno := token.Unseal(ctx, st.key, args[0].Cap)
					if errno != api.OK {
						return api.EV(errno)
					}
					ctx.Store32(payload, 77)
					payloadVal = ctx.Load32(payload)
					return api.EV(api.OK)
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 256, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "tls", Entry: "connect"},
			{Kind: firmware.ImportCall, Target: "tls", Entry: "send"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rets, err := ctx.Call("tls", "connect")
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("connect: %v %v", err, rets)
					return nil
				}
				sobj := rets[1].Cap
				leaked = sobj
				rets, err = ctx.Call("tls", "send", api.C(sobj))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("send: %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if payloadVal != 77 {
		t.Fatalf("payload = %d", payloadVal)
	}
	// The client's view of the object is sealed: unusable directly.
	if !leaked.Sealed() {
		t.Fatal("client received an unsealed state object")
	}
	if err := leaked.CheckAccess(cap.PermLoad, 1); err != cap.ErrSealViolation {
		t.Fatalf("client access to sealed object: %v", err)
	}
}

func TestStackOverflowRefused(t *testing.T) {
	img := NewImage("stack")
	img.AddCompartment(&firmware.Compartment{
		Name: "hungry", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "deep", MinStack: 4096,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				t.Error("entry must not run: stack too small")
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "caller", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "hungry", Entry: "deep"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// The thread stack is 1 KiB; "deep" declares 4 KiB. The
				// switcher must fault the *caller* before switching.
				defer func() {
					if r := recover(); r != nil {
						panic(r) // propagate the trap to the switcher
					}
				}()
				_, _ = ctx.Call("hungry", "deep")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "caller", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	th := s.Kernel.Thread("t")
	if th.ExitFault() == nil || th.ExitFault().Code != hw.TrapStackOverflow {
		t.Fatalf("fault = %v, want stack overflow", th.ExitFault())
	}
}

func TestPreemptionRoundRobin(t *testing.T) {
	img := NewImage("rr")
	counts := map[int]int{}
	entry := func(ctx api.Context, args []api.Value) []api.Value {
		for i := 0; i < 50; i++ {
			ctx.Work(sched.DefaultQuantum / 10)
			counts[ctx.ThreadID()]++
		}
		return nil
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "spin", MinStack: 128, Entry: entry}},
	})
	img.AddThread(&firmware.Thread{Name: "a", Compartment: "app", Entry: "spin",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "b", Compartment: "app", Entry: "spin",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(counts) != 2 {
		t.Fatalf("threads seen = %v, want both", counts)
	}
	if s.Kernel.Stats().ContextSwitches < 5 {
		t.Fatalf("context switches = %d, want preemption", s.Kernel.Stats().ContextSwitches)
	}
}

func TestPriorityWins(t *testing.T) {
	img := NewImage("prio")
	var first int
	entry := func(ctx api.Context, args []api.Value) []api.Value {
		if first == 0 {
			first = ctx.ThreadID()
		}
		ctx.Work(100)
		return nil
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "run", MinStack: 128, Entry: entry}},
	})
	img.AddThread(&firmware.Thread{Name: "low", Compartment: "app", Entry: "run",
		Priority: 1, StackSize: 512, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "high", Compartment: "app", Entry: "run",
		Priority: 9, StackSize: 512, TrustedStackFrames: 4})

	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first != s.Kernel.Thread("high").ID {
		t.Fatal("high-priority thread did not run first")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		img := NewImage("det")
		img.AddCompartment(&firmware.Compartment{
			Name: "app", CodeSize: 128, DataSize: 0,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 32768}},
			Imports:   alloc.Imports(),
			Exports: []*firmware.Export{{Name: "main", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					cl := alloc.Client{}
					for i := 0; i < 20; i++ {
						obj, errno := cl.Malloc(ctx, uint32(64+i*32))
						if errno != api.OK {
							return nil
						}
						ctx.StoreBytes(obj, []byte{1, 2, 3})
						cl.Free(ctx, obj)
					}
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
			Priority: 1, StackSize: 1024, TrustedStackFrames: 6})
		s, err := Boot(img)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		return s.Cycles()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation is not deterministic: %d vs %d cycles", a, b)
	}
	if a == 0 {
		t.Fatal("no cycles elapsed")
	}
}
