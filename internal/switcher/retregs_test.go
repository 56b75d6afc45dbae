package switcher_test

import (
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// TestReturnRegistersLifetime pins how long a multi-register return
// stays valid: until the caller's next call, as a0/a1 do on the
// hardware. Each case reads rets[1] only after something that would
// overwrite return registers shared too widely:
//   - a callee whose deferred nested call runs after its two-register
//     return is formed;
//   - a caller that crosses a preemption point (Work past its quantum,
//     while another thread makes two-register calls of its own) before
//     it reads rets[1];
//   - a library's two-register return, read after a preemption point;
//   - an error handler's retry, whose first attempt formed a return
//     before it trapped.
//
// The sequence runs twice: first while the thread's argument stack
// grows, so that each push may land in a fresh array, then with every
// register in the one array the later pushes write.
func TestReturnRegistersLifetime(t *testing.T) {
	img := core.NewImage("ret-lifetime")
	img.AddLibrary(&firmware.Library{
		Name: "lib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "pair",
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				return ctx.Ret(api.W(uint32(api.OK)), api.W(args[0].Word+1))
			}}},
	})
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "srv", CodeSize: 128,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "srv2", Entry: "sink"}},
		ErrorHandler: func(api.Context, *hw.Trap) api.HandlerDecision {
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{
			{Name: "deferred", MinStack: 128,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					defer ctx.Call("srv2", "sink", api.W(0xdead), api.W(0xbeef), api.W(0xf00d))
					return ctx.Ret(api.W(uint32(api.OK)), api.W(args[0].Word+1))
				}},
			{Name: "pair", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					return ctx.Ret(api.W(uint32(api.OK)), api.W(args[0].Word+1))
				}},
			{Name: "flaky", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					attempts++
					rets := ctx.Ret(api.W(uint32(api.OK)), api.W(0xbad))
					if attempts%2 == 1 {
						ctx.Fault(hw.TrapIllegalInstruction, "transient")
					}
					rets[1] = api.W(args[0].Word + 1)
					return rets
				}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "srv2", CodeSize: 64,
		Exports: []*firmware.Export{{Name: "sink", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				return ctx.Ret(api.W(uint32(api.OK)), api.W(0xdead), api.W(0xdead))
			}}},
	})
	calls := []firmware.Import{
		{Kind: firmware.ImportCall, Target: "srv", Entry: "deferred"},
		{Kind: firmware.ImportCall, Target: "srv", Entry: "pair"},
		{Kind: firmware.ImportCall, Target: "srv", Entry: "flaky"},
		{Kind: firmware.ImportLib, Target: "lib", Entry: "pair"},
	}
	var failure string
	check := func(what string, rets []api.Value, want uint32) {
		if failure != "" {
			return
		}
		if len(rets) != 2 || api.ErrnoOf(rets) != api.OK || rets[1].Word != want {
			failure = fmt.Sprintf("%s returned %v, want [OK %#x]", what, rets, want)
		}
	}
	const quantum = 200_000
	done, noise := false, 0
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, Imports: calls,
		Exports: []*firmware.Export{
			{Name: "main", MinStack: 512,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					defer func() { done = true }()
					for pass := uint32(0); pass < 2; pass++ {
						rets, err := ctx.Call("srv", "deferred", api.W(0x100+pass))
						if err != nil {
							failure = err.Error()
							return nil
						}
						check("a callee with a deferred nested call", rets, 0x101+pass)

						rets, _ = ctx.Call("srv", "pair", api.W(0x200+pass))
						before := noise
						ctx.Work(3 * quantum)
						check("a call read after a preemption point", rets, 0x201+pass)

						rets = ctx.LibCall("lib", "pair", api.W(0x300+pass))
						ctx.Work(3 * quantum)
						check("a library call read after a preemption point", rets, 0x301+pass)
						if noise == before && failure == "" {
							failure = "the other thread made no calls while main worked past its quantum"
						}

						rets, err = ctx.Call("srv", "flaky", api.W(0x400+pass))
						if err != nil {
							failure = err.Error()
							return nil
						}
						check("a retried call", rets, 0x401+pass)
					}
					return nil
				}},
			{Name: "noise", MinStack: 512,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					for i := uint32(0); !done; i++ {
						noise++
						ctx.Call("srv", "pair", api.W(0x9000+i))
						ctx.LibCall("lib", "pair", api.W(0xa000+i))
						ctx.Work(quantum / 4)
					}
					return nil
				}},
		},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "noise", Compartment: "main", Entry: "noise",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 4})
	s := boot(t, img)
	s.Sched.SetQuantum(quantum)
	run(t, s)
	if failure != "" {
		t.Fatal(failure)
	}
	if attempts != 4 {
		t.Fatalf("flaky ran %d times, want a fault and one retry per pass", attempts)
	}
}
