package compartment

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// Watchdog is an external-recovery compartment: monitored compartments
// publish a heartbeat through a statically-shared global (they write, the
// watchdog reads — §3's static sharing); if a heartbeat stalls, the
// watchdog micro-reboots the compartment from the *outside*, releasing
// its heap through a build-time-delegated allocation capability. Every
// piece of authority it needs — the read-only heartbeat view, the sealed
// quota delegation, the reset authority — is visible in the audit report.
//
// This is the recovery path for hangs and livelocks, which never trap and
// so never reach an error handler (§5.1.2 "attacks that do not cause a
// trap" can at least be contained in time, not only in space).
const WatchdogName = "watchdog"

// WatchdogTarget is one monitored compartment.
type WatchdogTarget struct {
	// Compartment is the victim; Quota names its allocation capability
	// (delegated to the watchdog as a sealed import at build time).
	Compartment string
	Quota       string
	// Heartbeat is the shared global the victim bumps.
	Heartbeat string
}

// Watchdog is the watchdog compartment's build-time configuration. Its
// thread keeps the heartbeat bookkeeping and reboots on the machine it
// runs on (see Reboot), so the image boots any number of machines.
type Watchdog struct {
	// Targets are the monitored compartments.
	Targets []WatchdogTarget
	// PeriodCycles is the check interval (default ~30 ms at 33 MHz).
	PeriodCycles uint32
	// StallChecks is how many unchanged periods count as a hang.
	StallChecks int
}

// HeartbeatName returns the conventional shared-global name for a
// compartment's heartbeat.
func HeartbeatName(compartment string) string { return "heartbeat-" + compartment }

// AddTo registers the watchdog compartment, its thread, and the heartbeat
// shared globals. Each target must already declare the named allocation
// capability; its heartbeat global is created here with the victim as the
// only writer.
func (w *Watchdog) AddTo(img *firmware.Image) {
	if w.PeriodCycles == 0 {
		w.PeriodCycles = 1_000_000
	}
	if w.StallChecks == 0 {
		w.StallChecks = 3
	}

	imports := append([]firmware.Import{}, sched.Imports()...)
	for i := range w.Targets {
		t := &w.Targets[i]
		if t.Heartbeat == "" {
			t.Heartbeat = HeartbeatName(t.Compartment)
		}
		img.SharedGlobals = append(img.SharedGlobals, firmware.SharedGlobal{
			Name: t.Heartbeat, Size: 8,
			Writers: []string{t.Compartment},
			Readers: []string{WatchdogName},
		})
		// The victim's allocation capability, delegated at build time, so
		// the watchdog can release the victim's heap (reboot step 3).
		imports = append(imports, firmware.Import{
			Kind: firmware.ImportSealed, Target: t.Compartment, Entry: t.Quota,
		})
	}
	imports = append(imports, alloc.Imports()...)

	img.AddCompartment(&firmware.Compartment{
		Name: WatchdogName, CodeSize: 800, DataSize: 64,
		Imports: imports,
		Exports: []*firmware.Export{{Name: "run", MinStack: 1024, Entry: w.run}},
	})
	img.AddThread(&firmware.Thread{
		Name: "watchdog", Compartment: WatchdogName, Entry: "run",
		// The watchdog outranks everything it monitors, or a spinning
		// victim could starve it.
		Priority: 9, StackSize: 4096, TrustedStackFrames: 12,
	})
}

// Beat is the victim-side helper: bump my heartbeat.
func Beat(ctx api.Context, name string) {
	word := ctx.SharedGlobal(name)
	ctx.Store32(word, ctx.Load32(word)+1)
}

// run is the watchdog thread body: every period it compares each
// target's heartbeat with the last, and micro-reboots a target whose
// heartbeat stalled for StallChecks periods, releasing its heap through
// the delegated capability. The reboot evicted the target's threads, so
// it is watched again only once a beat shows one runs there: a reboot is
// neither repeated nor, failed, retried every StallChecks periods. It
// exits only when unwound.
func (w *Watchdog) run(ctx api.Context, args []api.Value) []api.Value {
	last := make([]uint32, len(w.Targets))
	// stalled counts a target's periods without a beat; -1 disarms a
	// rebooted target until its next beat.
	stalled := make([]int, len(w.Targets))
	for i, t := range w.Targets {
		last[i] = ctx.Load32(ctx.SharedGlobal(t.Heartbeat))
	}
	for {
		if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(w.PeriodCycles)); err != nil {
			return api.EV(api.ErrUnwound)
		}
		for i, t := range w.Targets {
			now := ctx.Load32(ctx.SharedGlobal(t.Heartbeat))
			if now != last[i] {
				last[i] = now
				stalled[i] = 0
				continue
			}
			if stalled[i] < 0 {
				continue
			}
			stalled[i]++
			if stalled[i] < w.StallChecks {
				continue
			}
			// A failed reboot leaves the victim's guard up, closed rather
			// than reopened over a heap it still holds.
			_ = Reboot(ctx, t.Compartment, t.Compartment+"."+t.Quota)
			stalled[i] = -1
			last[i] = ctx.Load32(ctx.SharedGlobal(t.Heartbeat))
		}
	}
}
