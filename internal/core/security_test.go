package core

// Executable versions of the paper's §5.1.2 attack scenarios: what the
// platform stops, and how.

import (
	"errors"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/libs"
)

// TestNoCaptureArgumentCannotBeStored: a caller passes an argument with
// deep no-capture (§2.1); the malicious callee tries to stash it in its
// globals for use after returning. The store traps.
func TestNoCaptureArgumentCannotBeStored(t *testing.T) {
	img := NewImage("no-capture")
	var stashErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "evil", CodeSize: 128, DataSize: 64,
		Exports: []*firmware.Export{{Name: "take", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// Try to capture the argument.
				func() {
					defer func() {
						if r := recover(); r != nil {
							if tr, ok := r.(*hw.Trap); ok {
								stashErr = tr
								return
							}
							panic(r)
						}
					}()
					ctx.StoreCap(ctx.Globals(), args[0].Cap)
				}()
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 128, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(alloc.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "evil", Entry: "take"}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				obj, _ := (alloc.Client{}).Malloc(ctx, 64)
				nc, ok := libs.NoCapture(ctx, obj)
				if !ok {
					t.Error("NoCapture failed")
					return nil
				}
				if _, err := ctx.Call("evil", "take", api.C(nc)); err != nil {
					t.Errorf("call: %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := stashErr.(*hw.Trap)
	if !ok || tr.Code != hw.TrapPermitViolation {
		t.Fatalf("capture attempt result = %v, want permit-violation trap", stashErr)
	}
	// Nothing was stored.
	evil := s.Kernel.Comp("evil")
	got, err := s.Board.Core.Mem.LoadCap(evil.Globals())
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid() {
		t.Fatal("the capability was captured despite no-capture")
	}
}

// TestDeepImmutabilityOnArguments: passing a read-only deep view of a
// structure prevents the callee from writing through pointers *inside*
// the structure, not just the top level (§2.1 permit-load-mutable).
func TestDeepImmutabilityOnArguments(t *testing.T) {
	img := NewImage("deep-ro")
	var innerWrite error
	img.AddCompartment(&firmware.Compartment{
		Name: "evil", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "process", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				outer := args[0].Cap
				inner := ctx.LoadCap(outer) // follow the embedded pointer
				func() {
					defer func() {
						if r := recover(); r != nil {
							if tr, ok := r.(*hw.Trap); ok {
								innerWrite = tr
								return
							}
							panic(r)
						}
					}()
					ctx.Store32(inner, 0x41414141)
				}()
				return api.EV(api.OK)
			}}},
	})
	var innerVal uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 128, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(alloc.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "evil", Entry: "process"}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				inner, _ := cl.Malloc(ctx, 32)
				ctx.Store32(inner, 7777)
				outer, _ := cl.Malloc(ctx, 16)
				ctx.StoreCap(outer, inner)
				ro, ok := libs.ReadOnly(ctx, outer)
				if !ok {
					t.Error("ReadOnly failed")
					return nil
				}
				if _, err := ctx.Call("evil", "process", api.C(ro)); err != nil {
					t.Errorf("call: %v", err)
				}
				innerVal = ctx.Load32(inner)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := innerWrite.(*hw.Trap)
	if !ok || tr.Code != hw.TrapPermitViolation {
		t.Fatalf("inner write result = %v, want permit violation", innerWrite)
	}
	if innerVal != 7777 {
		t.Fatalf("inner value = %d; deep immutability was bypassed", innerVal)
	}
}

// TestStackPointersDoNotEscape: a pointer into the caller's stack (local,
// no-global) cannot be stored into a callee's globals — the
// permit-store-local rule (§2.1).
func TestStackPointersDoNotEscape(t *testing.T) {
	img := NewImage("stack-escape")
	var escape error
	img.AddCompartment(&firmware.Compartment{
		Name: "evil", CodeSize: 128, DataSize: 64,
		Exports: []*firmware.Export{{Name: "take", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if tr, ok := r.(*hw.Trap); ok {
								escape = tr
								return
							}
							panic(r)
						}
					}()
					ctx.StoreCap(ctx.Globals(), args[0].Cap)
				}()
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "evil", Entry: "take"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				buf := ctx.StackAlloc(32) // local capability
				ctx.Store32(buf, 123)
				if _, err := ctx.Call("evil", "take", api.C(buf)); err != nil {
					t.Errorf("call: %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := escape.(*hw.Trap)
	if !ok || tr.Code != hw.TrapPermitViolation {
		t.Fatalf("stack-pointer store = %v, want permit violation", escape)
	}
}

// TestRepeatAttack: §5.1.2 "Repeat attacks" — an attacker can force a
// victim compartment to micro-reboot over and over (an availability cost
// the paper acknowledges is fundamental to micro-reboots), but every
// reboot restores integrity and the system as a whole keeps running.
func TestRepeatAttack(t *testing.T) {
	img := NewImage("repeat")
	healthy := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 256, DataSize: 16,
		ErrorHandler: compartment.RebootHandler("", nil),
		Exports: []*firmware.Export{
			{Name: "crash", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Fault(hw.TrapIllegalInstruction, "attacked")
					return nil
				}},
			{Name: "ping", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					return api.EV(api.OK)
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "attacker", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "victim", Entry: "crash"},
			{Kind: firmware.ImportCall, Target: "victim", Entry: "ping"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 10; i++ {
					_, err := ctx.Call("victim", "crash")
					if !errors.Is(err, api.ErrUnwound) {
						t.Errorf("attack %d: %v", i, err)
					}
					// The victim always comes back.
					rets, err := ctx.Call("victim", "ping")
					if err == nil && api.ErrnoOf(rets) == api.OK {
						healthy++
					}
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "attacker", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := s.Kernel.Comp("victim").Reboots(); n != 10 {
		t.Fatalf("reboots = %d, want 10", n)
	}
	if healthy != 10 {
		t.Fatalf("victim healthy after %d/10 attacks", healthy)
	}
}

// TestInputCheckingPreventsFault: §3.2.5 — a hardened entry point checks
// pointer arguments and returns an error instead of faulting on garbage.
func TestInputCheckingPreventsFault(t *testing.T) {
	img := NewImage("input-check")
	var results []api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 256, DataSize: 0,
		Exports: []*firmware.Export{{Name: "sum", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if len(args) < 1 || !args[0].IsCap ||
					!libs.CheckPointer(ctx, args[0].Cap, cap.PermLoad, 8) {
					return api.EV(api.ErrInvalid)
				}
				buf := args[0].Cap
				v := ctx.Load32(buf) + ctx.Load32(buf.Offset(4))
				return []api.Value{api.W(uint32(api.OK)), api.W(v)}
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "caller", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "sum"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				record := func(rets []api.Value, err error) {
					if err != nil {
						results = append(results, api.ErrUnwound)
						return
					}
					results = append(results, api.ErrnoOf(rets))
				}
				// Good input.
				buf := ctx.StackAlloc(8)
				record(ctx.Call("svc", "sum", api.C(buf)))
				// Untagged capability.
				record(ctx.Call("svc", "sum", api.C(cap.Null())))
				// Too short.
				short, _ := buf.SetBounds(4)
				record(ctx.Call("svc", "sum", api.C(short)))
				// Not a capability at all.
				record(ctx.Call("svc", "sum", api.W(0x1234)))
				// No load permission.
				noload, _ := buf.AndPerms(cap.PermStore)
				record(ctx.Call("svc", "sum", api.C(noload)))
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "caller", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %v", results)
	}
	if results[0] != api.OK {
		t.Fatalf("good input rejected: %v", results[0])
	}
	for i, r := range results[1:] {
		if r != api.ErrInvalid {
			t.Fatalf("bad input %d = %v, want ErrInvalid (checked, not faulted)", i+1, r)
		}
	}
}

// TestFaultingErrorHandlerUnwinds: §5.1.2 "attacks on the error handler" —
// a handler that itself faults must not wedge the system; the switcher
// treats it as a request to unwind.
func TestFaultingErrorHandlerUnwinds(t *testing.T) {
	img := NewImage("bad-handler")
	handlerRan := false
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 8,
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			handlerRan = true
			// The handler has its own bug.
			g := ctx.Globals()
			ctx.Store32(g.WithAddress(g.Top()+16), 1)
			return api.HandlerRetry // never reached
		},
		Exports: []*firmware.Export{{Name: "crash", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "first fault")
				return nil
			}}},
	})
	var sawErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "caller", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, sawErr = ctx.Call("svc", "crash")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "caller", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !handlerRan {
		t.Fatal("handler never ran")
	}
	if !errors.Is(sawErr, api.ErrUnwound) {
		t.Fatalf("caller saw %v, want unwound", sawErr)
	}
	if th := s.Kernel.Thread("t"); th.ExitFault() != nil {
		t.Fatalf("thread died: %v", th.ExitFault())
	}
}

// TestZeroedAllocationNoLeak: §3.2.5 "thwarting information leaks" — a
// compartment's freed secrets are unreadable by the next owner of the
// memory.
func TestZeroedAllocationNoLeak(t *testing.T) {
	img := NewImage("leak")
	var leaked uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 220 * 1024}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				// Fill most of the heap with a secret, free it, then
				// allocate it all again and scan for the secret.
				secret, _ := cl.Malloc(ctx, 64*1024)
				for off := uint32(0); off < 64*1024; off += 4 {
					ctx.Store32(secret.WithAddress(secret.Base()+off), 0x5EC2E7)
				}
				cl.Free(ctx, secret)
				for i := 0; i < 8; i++ {
					buf, errno := cl.Malloc(ctx, 64*1024)
					if errno != api.OK {
						break
					}
					for off := uint32(0); off < 64*1024; off += 4 {
						if v := ctx.Load32(buf.WithAddress(buf.Base() + off)); v == 0x5EC2E7 {
							leaked++
						}
					}
					cl.Free(ctx, buf)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if leaked != 0 {
		t.Fatalf("found %d words of the freed secret in fresh allocations", leaked)
	}
}
