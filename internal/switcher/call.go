package switcher

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Fault is the error a compartment call returns when the callee trapped
// and was unwound. errors.Is(err, api.ErrUnwound) matches it.
type Fault struct {
	Trap        *hw.Trap
	Compartment string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("compartment %q unwound: %v", f.Compartment, f.Trap)
}

// Is makes the fault match api.ErrUnwound.
func (f *Fault) Is(target error) bool { return target == api.ErrUnwound }

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

// compartmentCall is the switcher's domain-transition path (§3.1.2): it
// validates the caller's sealed import, checks trusted-stack depth and
// stack space, zeroes the callee's stack frame on the way in and out,
// clears the thread's hazard slots, and dispatches traps to the callee's
// error handler. caller == nil marks a thread's top-level invocation.
// The call's n arguments are the top n slots of t's argument stack; every
// return pops them.
func (k *Kernel) compartmentCall(t *Thread, caller *Comp, target, entry string, n int) ([]api.Value, error) {
	if k.killed {
		// Deferred cleanup calling back in during a Shutdown kill: keep
		// unwinding instead of charging cycles against a dead machine.
		panic(killSentinel{})
	}
	if caller != nil && !caller.importsCall(target, entry) {
		panic(&hw.Trap{Code: hw.TrapPermitViolation,
			Detail: fmt.Sprintf("%s does not import %s.%s", caller.Name(), target, entry)})
	}
	callee := k.comps[target]
	if callee == nil {
		panic(&hw.Trap{Code: hw.TrapTagViolation,
			Detail: fmt.Sprintf("no compartment %q", target)})
	}
	argBase := t.argTop - n
	if callee.resetting {
		t.argTop = argBase
		return nil, api.ErrCompartmentBusy
	}
	exp := callee.exports[entry]
	if exp == nil {
		panic(&hw.Trap{Code: hw.TrapSealViolation,
			Detail: fmt.Sprintf("%s does not export %q", target, entry)})
	}
	if len(t.frames) >= t.maxFrames {
		panic(&hw.Trap{Code: hw.TrapStackOverflow,
			Detail: fmt.Sprintf("trusted stack exhausted (%d frames)", t.maxFrames)})
	}
	frameSize := align8(exp.MinStack)
	if t.sp < t.stack.Base+frameSize {
		// The caller cannot supply the stack the callee declared it
		// needs: fault in the caller, before the switch (§3.2.5).
		panic(&hw.Trap{Code: hw.TrapStackOverflow, Addr: t.sp,
			Detail: fmt.Sprintf("%s.%s needs %d stack bytes", target, entry, exp.MinStack)})
	}

	k.compCallCount++
	// Everything the switcher does on the transition — validation already
	// done above (it never ticks), the base call cost, and stack zeroing on
	// both paths — is attributed to the "<switcher>" pseudo-domain, and in
	// the profile to a "<switcher>" overlay frame under the caller's node;
	// the callee's account and node are installed only while its entry
	// runs.
	clk := k.Core.Clock
	parent := t.profRoot
	if len(t.frames) > 0 {
		parent = t.frames[len(t.frames)-1].node
	}
	clk.SetCompAccount(k.telSwitcher.Slot())
	clk.SetFrameAccount(parent.Enter(telemetry.DomainSwitcher).Cell())
	k.Core.Tick(hw.CallBaseCycles)
	callerName := ""
	if caller != nil {
		callerName = caller.Name()
	}
	k.Emit(telemetry.Event{Kind: telemetry.KindCall, Thread: t.Name,
		From: callerName, To: target, Entry: entry, Arg: uint64(exp.Posture)})

	// Ephemeral claims last until the thread's next compartment call
	// (§3.2.5).
	t.hazard = [2]cap.Capability{}

	base := t.sp - frameSize
	prevSP := t.sp
	if k.lazyZeroing {
		// High-water-mark optimization: only scrub the part of the new
		// frame that has been dirtied since its last scrub.
		if t.dirtyFloor < prevSP {
			zbase := base
			if t.dirtyFloor > zbase {
				zbase = t.dirtyFloor
			}
			k.zeroStack(t, zbase, prevSP-zbase)
			t.dirtyFloor = prevSP
		}
	} else {
		k.zeroStack(t, base, frameSize) // scrub caller leftovers
	}
	t.sp = base
	if used := t.stack.Top() - t.sp; used > t.peakUsed {
		t.peakUsed = used
	}

	var node *prof.Node
	if parent != nil {
		node = parent.Enter(k.profLabel(callee, exp))
	}
	fr := frame{comp: callee, node: node, base: base, size: frameSize, prevSP: prevSP}
	prevDisable := t.irqDisable
	switch exp.Posture {
	case firmware.PostureDisabled:
		t.irqDisable++
	case firmware.PostureEnabled:
		t.irqDisable = 0
	}
	t.frames = append(t.frames, fr)

	k.installFrame(t)
	rets, fault := k.runEntry(t, callee, exp, t.args[argBase:t.argTop:t.argTop])
	t.argTop = argBase
	// Back to the overlay for the return-path zeroing.
	clk.SetCompAccount(k.telSwitcher.Slot())
	clk.SetFrameAccount(parent.Enter(telemetry.DomainSwitcher).Cell())

	// Return path: scrub callee secrets, pop the trusted-stack frame,
	// restore the caller's stack pointer and interrupt posture.
	if k.lazyZeroing {
		// Scrub only what the callee actually dirtied; the rest of the
		// frame is still clean from the entry path.
		used := t.frames[len(t.frames)-1].allocOff
		k.zeroStack(t, base, used)
		if t.dirtyFloor >= base {
			t.dirtyFloor = prevSP
		}
	} else {
		k.zeroStack(t, base, frameSize)
	}
	t.frames = t.frames[:len(t.frames)-1]
	t.sp = prevSP
	t.irqDisable = prevDisable
	if t.evict[target] && !t.InCompartment(target) {
		delete(t.evict, target) // the eviction completed
	}

	k.installFrame(t)
	if fault != nil {
		k.Emit(telemetry.Event{Kind: telemetry.KindUnwind, Thread: t.Name, To: target})
		return nil, &Fault{Trap: fault, Compartment: target}
	}
	k.Emit(telemetry.Event{Kind: telemetry.KindReturn, Thread: t.Name,
		From: callerName, To: target, Entry: entry})
	return rets, nil
}

// runEntry invokes the entry function, converting trap panics into error
// handling per the compartment's policy (§3.2.6).
func (k *Kernel) runEntry(t *Thread, callee *Comp, exp *firmware.Export, args []api.Value) (rets []api.Value, fault *hw.Trap) {
	const maxRetries = 1
	depth := len(t.frames) - 1
	for len(t.ctxs) <= depth {
		t.ctxs = append(t.ctxs, new(ctx))
	}
	c := t.ctxs[depth]
	argTop := t.argTop
	for attempt := 0; ; attempt++ {
		fault = nil
		rets = nil
		// A retry drops whatever argument registers the failed attempt
		// left pushed by a call that trapped before returning.
		t.argTop = argTop
		func() {
			defer func() {
				if r := recover(); r != nil {
					if tr, ok := r.(*hw.Trap); ok {
						fault = tr
						return
					}
					panic(r)
				}
			}()
			*c = ctx{k: k, t: t, comp: callee, frameIdx: depth}
			rets = exp.Entry(api.Context{Frame: c}, args)
		}()
		if fault == nil {
			return rets, nil
		}
		// The panic may have unwound past a nested transition that left
		// the clock pointing elsewhere; fault handling — handler runs and
		// unwind cost — is charged to the faulting frame, on top of the
		// trusted stack again.
		k.installFrame(t)
		k.emit(telemetry.Event{Kind: telemetry.KindTrap, Thread: t.Name, To: callee.Name(),
			Entry: exp.Name, Detail: fault.Code.String(), Arg: uint64(fault.Addr)}, fault)
		// A forced unwind (micro-reboot) always tears the thread out; the
		// handler must not intercept it.
		if fault.Code == hw.TrapForcedUnwind {
			k.Core.Tick(hw.UnwindDefaultCycles)
			return nil, fault
		}
		handler := callee.def.ErrorHandler
		if handler == nil || attempt >= maxRetries {
			// Default policy: unwind the thread out of the compartment.
			k.Core.Tick(hw.UnwindDefaultCycles)
			return nil, fault
		}
		k.Core.Tick(hw.HandlerInvokeCycles)
		decision := k.runHandler(t, callee, handler, fault)
		if decision == api.HandlerRetry {
			// Re-invoke from a clean frame: scrub the failed attempt's
			// stack dirt and return its StackAlloc budget.
			fr := &t.frames[len(t.frames)-1]
			k.zeroStack(t, fr.base, fr.size)
			fr.allocOff = 0
			continue
		}
		// The unwind itself costs the same whether or not a handler ran
		// (Table 3: 109 no-handler, 413 with the 304-cycle handler path).
		k.Core.Tick(hw.UnwindDefaultCycles)
		return nil, fault
	}
}

// runHandler executes the compartment's global error handler in the
// compartment's own context and rights. A handler that itself faults is
// treated as requesting unwind.
func (k *Kernel) runHandler(t *Thread, callee *Comp, handler api.ErrorHandler, cause *hw.Trap) (decision api.HandlerDecision) {
	decision = api.HandlerUnwind
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*hw.Trap); ok {
				decision = api.HandlerUnwind
				return
			}
			panic(r)
		}
	}()
	c := &ctx{k: k, t: t, comp: callee, frameIdx: len(t.frames) - 1, inHandler: true}
	decision = handler(api.Context{Frame: c}, cause)
	return decision
}

// zeroStack scrubs a stack range, charging the 2-bytes-per-cycle zeroing
// cost that dominates Fig. 6a's stack-usage curve.
func (k *Kernel) zeroStack(t *Thread, base, size uint32) {
	if size == 0 || !k.stackZeroing {
		return
	}
	if err := k.Core.Mem.Zero(t.stackCap.WithAddress(base), size); err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	k.Core.Tick(hw.ZeroCost(size))
}

// libCall invokes a shared-library function in the caller's security
// domain: no new trusted-stack frame, no zeroing; traps propagate to the
// calling compartment's handler (§3). Its n arguments are the top n slots
// of the thread's argument stack; the return, or a trap, pops them.
func (k *Kernel) libCall(c *ctx, lib, fn string, n int) []api.Value {
	if !c.comp.importsLib(lib, fn) {
		panic(&hw.Trap{Code: hw.TrapPermitViolation,
			Detail: fmt.Sprintf("%s does not import %s.%s", c.comp.Name(), lib, fn)})
	}
	l := k.libs[lib]
	if l == nil {
		panic(&hw.Trap{Code: hw.TrapTagViolation, Detail: fmt.Sprintf("no library %q", lib)})
	}
	f := l.funcs[fn]
	if f == nil {
		panic(&hw.Trap{Code: hw.TrapSealViolation,
			Detail: fmt.Sprintf("%s does not export %q", lib, fn)})
	}
	k.Core.Tick(hw.LibCallCycles)
	// Library sentries carry interrupt-posture semantics (§2.1): a
	// disabling sentry defers interrupts for the duration of the call and
	// the matching return sentry restores them.
	t := c.t
	prevDisable := t.irqDisable
	switch f.Posture {
	case firmware.PostureDisabled:
		t.irqDisable++
	case firmware.PostureEnabled:
		t.irqDisable = 0
	}
	top := t.argTop
	base := top - n
	defer func() { t.irqDisable, t.argTop = prevDisable, base }()
	return f.Entry(api.Context{Frame: c}, t.args[base:top:top])
}
