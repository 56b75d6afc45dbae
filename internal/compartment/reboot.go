// Package compartment provides the fault-tolerance driver built on the
// switcher and allocator: the five-step micro-reboot of §3.2.6, driven
// from a compartment's error handler or from a watchdog, and a
// persistent state-store compartment for state that must survive reboots.
package compartment

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Reboot micro-reboots compartment target on the kernel of the machine
// ctx runs on (switcher.KernelOf), which counts the reboot in
// switcher.Comp.Reboots, so an image boots any number of machines. ctx
// drives the reboot: the target's own error handler, or a watchdog's
// thread outside it. quota names the allocation capability in ctx's
// import table whose heap step 3 releases ("" skips the release). A
// failed release leaves the guard up.
//
// The five steps (§3.2.6):
//  1. prevent new threads from entering (the switcher's resetting guard);
//  2. rewind all threads in the compartment (forced unwind + force-wake);
//  3. release all heap data owned by the compartment's quota;
//  4. reset globals to their boot-time content and rebuild the Go-level
//     state object from the compartment's State factory;
//  5. persistent state, if any, lives in a separate state-store
//     compartment and survives.
func Reboot(ctx api.Context, target, quota string) error {
	k := switcher.KernelOf(ctx)
	// Steps 1 + 2: guard the entry points, evict every thread inside but
	// the one rebooting (a hung one faults at its next operation).
	if err := k.BeginReset(target, ctx.ThreadID()); err != nil {
		return err
	}
	// Step 3: release all heap memory held by the quota.
	if quota != "" {
		if _, errno := (alloc.Client{AllocCap: quota}).FreeAll(ctx); errno != api.OK {
			return fmt.Errorf("compartment: free-all of %s failed: %v", target, errno)
		}
	}
	// Step 4: restore globals and state, reopen the gates.
	return k.FinishReset(target)
}

// RebootHandler returns a global error handler that micro-reboots the
// compartment it runs in on any fault, releasing the heap of its
// allocation capability quota ("" skips the release), and then unwinds
// the faulting thread. Each completed reboot emits one KindReboot event
// on the faulting thread, Arg the compartment's reboot count. prepare,
// if non-nil, runs before the reboot (e.g. to stash persistent state in
// the state store).
func RebootHandler(quota string, prepare func(api.Context, *hw.Trap)) api.ErrorHandler {
	return func(ctx api.Context, t *hw.Trap) api.HandlerDecision {
		if prepare != nil {
			prepare(ctx, t)
		}
		// A failed reboot leaves the guard up; unwinding is still the
		// safest option.
		name := ctx.Compartment()
		if Reboot(ctx, name, quota) == nil {
			k := switcher.KernelOf(ctx)
			ctx.Emit(telemetry.Event{Kind: telemetry.KindReboot, To: name,
				Thread: k.ThreadByID(ctx.ThreadID()).Name, Arg: uint64(k.Comp(name).Reboots())})
		}
		return api.HandlerUnwind
	}
}
