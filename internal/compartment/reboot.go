// Package compartment provides the fault-tolerance driver built on the
// switcher and allocator: the five-step micro-reboot of §3.2.6, and a
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

// Rebooter drives micro-reboots of one compartment. It is typically
// embedded in the compartment's global error handler: on a fault the
// handler calls Reboot and returns HandlerUnwind. Each reboot runs on
// the kernel of the context driving it, which counts the reboot and
// times the handler (switcher.Comp), so an image boots any number of
// machines.
//
// The five steps (§3.2.6):
//  1. prevent new threads from entering (the switcher's resetting guard);
//  2. rewind all threads in the compartment (forced unwind + force-wake);
//  3. release all heap data owned by the compartment's quota;
//  4. reset globals from the boot-time snapshot and rebuild the Go-level
//     state object;
//  5. persistent state, if any, lives in a separate state-store
//     compartment and survives.
type Rebooter struct {
	// Compartment is the compartment to reboot.
	Compartment string
	// QuotaImport names the compartment's allocation capability whose
	// memory is released in step 3 ("" skips the heap release).
	QuotaImport string
}

// Reboot performs the micro-reboot. ctx must execute inside the target
// compartment (normally the error handler's context).
func (r *Rebooter) Reboot(ctx api.Context) error {
	k := switcher.KernelOf(ctx)
	// Steps 1 + 2: guard the entry points, evict every other thread.
	if err := k.BeginReset(r.Compartment, ctx.ThreadID()); err != nil {
		return err
	}
	// Step 3: release all heap memory held by the compartment's quota.
	if r.QuotaImport != "" {
		if _, errno := (alloc.Client{AllocCap: r.QuotaImport}).FreeAll(ctx); errno != api.OK {
			return fmt.Errorf("compartment: free-all failed: %v", errno)
		}
	}
	// Step 4: restore globals and state, reopen the gates.
	if err := k.FinishReset(r.Compartment); err != nil {
		return err
	}
	ev := telemetry.Event{Kind: telemetry.KindReboot, To: r.Compartment,
		Arg: uint64(k.Comp(r.Compartment).Reboots())}
	if t := k.ThreadByID(ctx.ThreadID()); t != nil {
		ev.Thread = t.Name
	}
	ctx.Emit(ev)
	return nil
}

// Handler returns a global error handler that micro-reboots the
// compartment on any fault and then unwinds the faulting thread. prepare,
// if non-nil, runs before the reboot (e.g. to stash persistent state in
// the state store).
func (r *Rebooter) Handler(prepare func(ctx api.Context, t *hw.Trap)) api.ErrorHandler {
	return func(ctx api.Context, t *hw.Trap) api.HandlerDecision {
		if prepare != nil {
			prepare(ctx, t)
		}
		// A failed reboot leaves the guard up; unwinding is still the
		// safest option.
		_ = r.Reboot(ctx)
		return api.HandlerUnwind
	}
}
