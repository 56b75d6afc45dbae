package switcher_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// profFrames indexes a profile by folded stack.
func profFrames(p *prof.Profile) map[string]prof.Frame {
	m := make(map[string]prof.Frame, len(p.Frames))
	for _, f := range p.Frames {
		m[f.Stack] = f
	}
	return m
}

// checkExact asserts the profiler's exactness invariant against the
// machine clock and, when telemetry is also armed at the same instant,
// against the registry: the profile total equals the attributed cycles,
// and every compartment account equals the self-cycles of the frames
// that fold onto it (see foldDomains).
func checkExact(t *testing.T, s *core.System, p *prof.Profile) {
	t.Helper()
	if p.BaseCycles+p.TotalCycles != s.Cycles() {
		t.Errorf("base %d + total %d != clock %d", p.BaseCycles, p.TotalCycles, s.Cycles())
	}
	if p.SelfSum() != p.TotalCycles {
		t.Errorf("frame self sum %d != total %d", p.SelfSum(), p.TotalCycles)
	}
	reg := s.Telemetry()
	if reg == nil {
		return
	}
	if got := reg.AttributedCycles(); got != p.TotalCycles {
		t.Errorf("profile total %d != telemetry attributed %d", p.TotalCycles, got)
	}
	fold := foldDomains(p)
	accounts := map[string]uint64{}
	for _, a := range reg.Accounts() {
		accounts[a.Name()] = a.Cycles()
	}
	for dom, cycles := range accounts {
		if fold[dom] != cycles {
			t.Errorf("account %s = %d cycles, profile folds %d onto it", dom, cycles, fold[dom])
		}
	}
	for dom, cycles := range fold {
		if _, ok := accounts[dom]; !ok && cycles != 0 {
			t.Errorf("profile folds %d cycles onto %s, which has no account", cycles, dom)
		}
	}
}

// foldDomains sums each frame's self-cycles onto the telemetry domain the
// clock charged while that frame was current: a "comp.entry" leaf's
// compartment, a "<…>" leaf's pseudo-domain, and the switcher for a bare
// thread root (a thread that has not entered a compartment yet, or has
// returned from its top-level call).
func foldDomains(p *prof.Profile) map[string]uint64 {
	fold := map[string]uint64{}
	for _, f := range p.Frames {
		leaf := f.Stack[strings.LastIndexByte(f.Stack, ';')+1:]
		dom := telemetry.DomainSwitcher
		switch {
		case strings.HasPrefix(leaf, "<"):
			dom = leaf
		case strings.Contains(f.Stack, ";"):
			dom = leaf[:strings.IndexByte(leaf, '.')]
		}
		fold[dom] += f.Self
	}
	return fold
}

// TestProfilerLoopFoldsToAccounts: across every kernel-loop path (calls,
// futex wait and wake, sleeps with idle skips, yields, priority wakes and
// quantum expiry) the profile armed at the same instant as telemetry
// folds onto the compartment accounts exactly, and the profiler armed
// alone still sums to the clock.
func TestProfilerLoopFoldsToAccounts(t *testing.T) {
	s := boot(t, loopImage())
	s.EnableTelemetry(0)
	p := s.EnableProfiler()
	run(t, s)
	if st := s.Kernel.Stats(); st.ContextSwitches < 50 || st.IdleCycles == 0 {
		t.Fatalf("workload too tame to cover the loop: %+v", st)
	}
	pr := p.Snapshot()
	checkExact(t, s, pr)
	fold := foldDomains(pr)
	for _, dom := range []string{"app", "svc", "sched", telemetry.DomainSwitcher,
		telemetry.DomainSched, telemetry.DomainIdle} {
		if fold[dom] == 0 {
			t.Errorf("no cycles folded onto %s", dom)
		}
	}

	alone := boot(t, loopImage())
	pa := alone.EnableProfiler()
	run(t, alone)
	checkExact(t, alone, pa.Snapshot())
	if alone.Cycles() != s.Cycles() {
		t.Errorf("profiler alone ran to %d cycles, with telemetry %d", alone.Cycles(), s.Cycles())
	}
}

// TestProfilerCallChain: nested cross-compartment calls reconstruct into
// folded stacks whose self-cycles sum exactly to the clock and to the
// telemetry layer's attributed cycles.
func TestProfilerCallChain(t *testing.T) {
	img := core.NewImage("prof-chain")
	img.AddCompartment(&firmware.Compartment{
		Name: "leaf", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "op", MinStack: 32,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(500)
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "leaf", Entry: "op"}},
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(1000)
				if _, err := ctx.Call("leaf", "op"); err != nil {
					return api.EV(api.ErrUnwound)
				}
				return api.EV(api.OK)
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "work"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 2; i++ {
					if _, err := ctx.Call("svc", "work"); err != nil {
						t.Errorf("call svc.work: %v", err)
					}
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	s := boot(t, img)
	s.EnableTelemetry(0)
	p := s.EnableProfiler()
	run(t, s)

	pr := p.Snapshot()
	checkExact(t, s, pr)
	fr := profFrames(pr)

	svc := fr["t;main.main;svc.work"]
	if svc.Calls != 2 || svc.Self < 2000 {
		t.Errorf("svc.work frame = %+v, want 2 calls and >= 2000 self cycles", svc)
	}
	leaf := fr["t;main.main;svc.work;leaf.op"]
	if leaf.Calls != 2 || leaf.Self < 1000 {
		t.Errorf("leaf.op frame = %+v, want 2 calls and >= 1000 self cycles", leaf)
	}
	// The switcher's transition work (call overlay, stack zeroing) folds
	// under the caller, not into the callee's self time.
	if fr["t;main.main;svc.work;"+telemetry.DomainSwitcher].Self == 0 {
		t.Error("no switcher overlay cycles under svc.work (nested call transitions)")
	}
	// Each call enters its caller's overlay twice: once for the call
	// path and once for the return-path zeroing.
	for stack, want := range map[string]uint64{
		"t;" + telemetry.DomainSwitcher:                    2,
		"t;main.main;" + telemetry.DomainSwitcher:          4,
		"t;main.main;svc.work;" + telemetry.DomainSwitcher: 4,
	} {
		if got := fr[stack].Calls; got != want {
			t.Errorf("%s entered %d times, want %d", stack, got, want)
		}
	}
	// Snapshot is idempotent at the same clock.
	pr2 := p.Snapshot()
	if pr2.TotalCycles != pr.TotalCycles || pr2.SelfSum() != pr.SelfSum() {
		t.Errorf("second snapshot diverged: %d/%d vs %d/%d",
			pr2.TotalCycles, pr2.SelfSum(), pr.TotalCycles, pr.SelfSum())
	}
}

// TestProfilerTrapUnwind: a callee that traps and unwinds leaves the
// profile well-formed — the fault handling is charged to the
// faulting frame, and later calls fold under the caller as siblings, not
// under the dead callee.
func TestProfilerTrapUnwind(t *testing.T) {
	img := core.NewImage("prof-trap")
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{
			{Name: "bad", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Work(300)
					ctx.Fault(hw.TrapBoundsViolation, "deliberate")
					return nil
				}},
			{Name: "good", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Work(200)
					return api.EV(api.OK)
				}},
		},
	})
	var badErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "bad"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "good"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, badErr = ctx.Call("svc", "bad")
				if _, err := ctx.Call("svc", "good"); err != nil {
					t.Errorf("call after unwind: %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	s := boot(t, img)
	s.EnableTelemetry(0)
	p := s.EnableProfiler()
	run(t, s)

	if !errors.Is(badErr, api.ErrUnwound) {
		t.Fatalf("svc.bad returned %v, want unwound", badErr)
	}
	pr := p.Snapshot()
	checkExact(t, s, pr)
	fr := profFrames(pr)

	bad := fr["t;main.main;svc.bad"]
	// Work(300) plus the unwind cost are both the faulting frame's.
	if bad.Calls != 1 || bad.Self < 300+hw.UnwindDefaultCycles {
		t.Errorf("svc.bad frame = %+v, want 1 call and >= %d self cycles",
			bad, 300+hw.UnwindDefaultCycles)
	}
	good := fr["t;main.main;svc.good"]
	if good.Calls != 1 || good.Self < 200 {
		t.Errorf("svc.good frame = %+v, want sibling frame with >= 200 self cycles", good)
	}
	// The unwind must not have left svc.good nested under svc.bad.
	for stack := range fr {
		if len(stack) > len("t;main.main;svc.bad;") &&
			stack[:len("t;main.main;svc.bad;")] == "t;main.main;svc.bad;" {
			t.Errorf("unexpected frame under the unwound callee: %q", stack)
		}
	}
}

// TestProfilerHandlerPaths: the error handler's two outcomes. A callee
// that faults once, whose handler makes a compartment call and then
// retries, keeps one frame entered once that holds the work of both
// attempts, with the handler's call as its child. A callee whose handler
// unwinds keeps the handler invocation and the unwind cost in its own
// frame.
func TestProfilerHandlerPaths(t *testing.T) {
	const flakyWork, doomedWork, helperWork = 400, 250, 150
	img := core.NewImage("prof-handler")
	img.AddCompartment(&firmware.Compartment{
		Name: "helper", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "op", MinStack: 32,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(helperWork)
				return api.EV(api.OK)
			}}},
	})
	attempts := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "helper", Entry: "op"}},
		ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
			if tr.Detail != "transient" {
				return api.HandlerUnwind
			}
			if _, err := ctx.Call("helper", "op"); err != nil {
				t.Errorf("handler's call: %v", err)
			}
			return api.HandlerRetry
		},
		Exports: []*firmware.Export{
			{Name: "flaky", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					attempts++
					ctx.Work(flakyWork)
					if attempts == 1 {
						ctx.Fault(hw.TrapIllegalInstruction, "transient")
					}
					return api.EV(api.OK)
				}},
			{Name: "doomed", MinStack: 64,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Work(doomedWork)
					ctx.Fault(hw.TrapBoundsViolation, "fatal")
					return nil
				}},
		},
	})
	var flakyErr, doomedErr error
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "flaky"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "doomed"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, flakyErr = ctx.Call("svc", "flaky")
				_, doomedErr = ctx.Call("svc", "doomed")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	s := boot(t, img)
	s.EnableTelemetry(0)
	p := s.EnableProfiler()
	run(t, s)

	if flakyErr != nil || attempts != 2 {
		t.Fatalf("svc.flaky = %v after %d attempts, want success on the retry", flakyErr, attempts)
	}
	if !errors.Is(doomedErr, api.ErrUnwound) {
		t.Fatalf("svc.doomed returned %v, want unwound", doomedErr)
	}
	pr := p.Snapshot()
	checkExact(t, s, pr)
	fr := profFrames(pr)

	// The retry re-invokes the entry in the same frame: one entry, the
	// work of both attempts and the handler invocation.
	flaky := fr["t;main.main;svc.flaky"]
	if want := uint64(2*flakyWork + hw.HandlerInvokeCycles); flaky.Calls != 1 || flaky.Self < want {
		t.Errorf("svc.flaky frame = %+v, want 1 call and >= %d self cycles", flaky, want)
	}
	// The handler runs on the faulting frame, so its call nests there.
	if op := fr["t;main.main;svc.flaky;helper.op"]; op.Calls != 1 || op.Self < helperWork {
		t.Errorf("handler's helper.op frame = %+v, want 1 call and >= %d self cycles", op, helperWork)
	}
	if ov := fr["t;main.main;svc.flaky;"+telemetry.DomainSwitcher]; ov.Calls != 2 || ov.Self == 0 {
		t.Errorf("handler's call overlay = %+v, want 2 entries with cycles", ov)
	}
	doomed := fr["t;main.main;svc.doomed"]
	if want := uint64(doomedWork + hw.HandlerInvokeCycles + hw.UnwindDefaultCycles); doomed.Calls != 1 || doomed.Self < want {
		t.Errorf("svc.doomed frame = %+v, want 1 call and >= %d self cycles", doomed, want)
	}
	for stack := range fr {
		if strings.HasPrefix(stack, "t;main.main;svc.doomed;") {
			t.Errorf("unexpected frame under the unwound callee: %q", stack)
		}
	}
}

// TestProfilerForcedUnwind: a thread evicted from a resetting compartment
// (micro-reboot step 2) is torn out mid-loop by a forced-unwind trap; the
// unwind pops its trusted stack, frames and profile nodes together, and
// the profile stays exact.
func TestProfilerForcedUnwind(t *testing.T) {
	img := core.NewImage("prof-evict")
	var kernel interface {
		BeginReset(string, int) error
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "spin", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for {
					ctx.Work(1000) // checkLive faults once evicted
				}
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "ctl", CodeSize: 128, DataSize: 0,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// Let the victim run a while, then reset its compartment.
				if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(200_000)); err != nil {
					t.Errorf("sleep: %v", err)
				}
				if err := kernel.BeginReset("svc", 0); err != nil {
					t.Errorf("BeginReset: %v", err)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "victim", Compartment: "svc", Entry: "spin",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "ctl", Compartment: "ctl", Entry: "main",
		Priority: 2, StackSize: 2048, TrustedStackFrames: 4})
	s := boot(t, img)
	kernel = s.Kernel
	s.EnableTelemetry(0)
	p := s.EnableProfiler()
	run(t, s)

	victim := s.Kernel.Thread("victim")
	if victim.ExitFault() == nil || victim.ExitFault().Code != hw.TrapForcedUnwind {
		t.Fatalf("victim fault = %v, want forced unwind", victim.ExitFault())
	}
	pr := p.Snapshot()
	checkExact(t, s, pr)
	fr := profFrames(pr)
	spin := fr["victim;svc.spin"]
	if spin.Calls != 1 || spin.Self == 0 {
		t.Errorf("victim frame = %+v, want the spin loop's cycles", spin)
	}
	// The controller spent its time in the scheduler sleep, folded under
	// its own frame.
	if fr["ctl;ctl.main"].Calls != 1 {
		t.Errorf("controller frame = %+v, want 1 call", fr["ctl;ctl.main"])
	}
}
