package core

import (
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// TestFlightRecorderUseAfterFreeForensics is the end-to-end black-box
// scenario: a compartment allocates, stashes the capability in its
// globals, frees the allocation, waits for the revocation sweep, and
// then dereferences the stale capability reloaded through the load
// filter. The resulting crash report must walk provenance backwards to
// the allocating compartment and the sweep that invalidated the object.
func TestFlightRecorderUseAfterFreeForensics(t *testing.T) {
	var rec *flightrec.Recorder // armed after boot, before the run
	img := NewImage("uaf-forensics")
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 512, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(alloc.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: sched.Name, Entry: sched.EntrySleep}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				obj, errno := cl.Malloc(ctx, 64)
				if errno != api.OK {
					t.Errorf("malloc: %v", errno)
					return nil
				}
				ctx.Store32(obj, 0xDEAD)
				// Stash the pointer in globals — the dangling reference.
				ctx.StoreCap(ctx.Globals(), obj)
				if errno := cl.Free(ctx, obj); errno != api.OK {
					t.Errorf("free: %v", errno)
					return nil
				}
				// Reload the stale pointer right away: the memory still holds
				// the tagged capability, but the granules are revoked, so the
				// load filter untags it (preserving its bounds).
				stale := ctx.LoadCap(ctx.Globals())
				if stale.Valid() {
					t.Error("load filter did not untag the dangling capability")
					return nil
				}
				// Wait until the revocation sweep triggered by the free has
				// completed; the recorder observes sweep completion.
				for i := 0; i < 64 && rec.Sweeps() == 0; i++ {
					if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(200_000)); err != nil {
						t.Errorf("sleep: %v", err)
						return nil
					}
				}
				if rec.Sweeps() == 0 {
					t.Error("no revocation sweep completed")
					return nil
				}
				// Dereference it: tag-violation trap, captured as a report.
				ctx.Load32(stale)
				t.Error("use-after-free did not trap")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})

	s := boot(t, img)
	rec = s.EnableFlightRecorder(512)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	th := s.Kernel.Thread("t")
	if th.ExitFault() == nil || th.ExitFault().Code != hw.TrapTagViolation {
		t.Fatalf("thread fault = %v, want tag violation", th.ExitFault())
	}

	reps := rec.Reports()
	if len(reps) != 1 {
		t.Fatalf("got %d crash reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Compartment != "victim" || rep.Entry != "main" {
		t.Errorf("report fault site = %s.%s, want victim.main", rep.Compartment, rep.Entry)
	}
	if rep.Code != hw.TrapTagViolation.String() {
		t.Errorf("report code = %q, want tag violation", rep.Code)
	}
	if rep.Cap == nil || rep.Cap.Tag {
		t.Fatalf("report must dump the untagged capability, got %+v", rep.Cap)
	}
	al := rep.Allocation
	if al == nil {
		t.Fatal("report did not resolve the allocation")
	}
	if al.Owner != "victim" || al.Quota != "default" {
		t.Errorf("allocation owner/quota = %s/%s, want victim/default", al.Owner, al.Quota)
	}
	if al.Live() {
		t.Error("allocation should be recorded as freed")
	}
	if al.FreedBy != "victim" {
		t.Errorf("freed by %q, want victim", al.FreedBy)
	}
	if al.SweepEpoch == 0 {
		t.Error("report did not identify the freeing sweep epoch")
	}
	if len(rep.Chain) == 0 {
		t.Fatal("report has no provenance chain")
	}
	root := rep.Chain[len(rep.Chain)-1]
	if root.Comp != alloc.Name || !strings.Contains(root.Note, "heap") {
		t.Errorf("provenance root = %+v, want the allocator heap root", root)
	}
	for _, want := range []string{"victim", "dangling", "sweep epoch"} {
		if !strings.Contains(rep.Summary, want) {
			t.Errorf("summary %q missing %q", rep.Summary, want)
		}
	}

	// The load filter firing must be on the timeline before the trap.
	var sawFilter, sawTrap bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case telemetry.KindLoadFiltered:
			sawFilter = true
		case telemetry.KindTrap:
			if !sawFilter {
				t.Error("trap recorded before the load filter event")
			}
			sawTrap = true
		}
	}
	if !sawFilter || !sawTrap {
		t.Errorf("timeline missing load-filter (%v) or trap (%v) events", sawFilter, sawTrap)
	}
}

// TestFlightRecorderTimeline checks the happy-path event stream: calls,
// returns, allocations, and sweep events appear with cycle stamps, and
// the recorder costs zero simulated cycles.
func TestFlightRecorderTimeline(t *testing.T) {
	build := func() *firmware.Image {
		img := NewImage("timeline")
		img.AddCompartment(&firmware.Compartment{
			Name: "app", CodeSize: 256, DataSize: 32,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 2048}},
			Imports:   alloc.Imports(),
			Exports: []*firmware.Export{{Name: "main", MinStack: 384,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					cl := alloc.Client{}
					for i := 0; i < 4; i++ {
						obj, errno := cl.Malloc(ctx, 128)
						if errno != api.OK {
							t.Errorf("malloc: %v", errno)
							return nil
						}
						ctx.Store32(obj, uint32(i))
						cl.Free(ctx, obj)
					}
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
			Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
		return img
	}

	s := boot(t, build())
	rec := s.EnableFlightRecorder(1024)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cyclesWith := s.Cycles()

	ops := make(map[telemetry.Kind]int)
	var lastCycle uint64
	for _, ev := range rec.Events() {
		ops[ev.Kind]++
		if ev.Cycle < lastCycle {
			t.Fatalf("events out of cycle order: %d after %d", ev.Cycle, lastCycle)
		}
		lastCycle = ev.Cycle
	}
	if ops[telemetry.KindCall] == 0 || ops[telemetry.KindReturn] == 0 {
		t.Error("timeline missing call/return events")
	}
	if ops[telemetry.KindAlloc] != 4 || ops[telemetry.KindFree] != 4 {
		t.Errorf("alloc/free events = %d/%d, want 4/4", ops[telemetry.KindAlloc], ops[telemetry.KindFree])
	}
	if rec.ReportsTotal() != 0 {
		t.Errorf("fault-free run produced %d reports", rec.ReportsTotal())
	}

	// Zero observer effect: the same firmware without the recorder runs
	// the same number of simulated cycles.
	s2 := boot(t, build())
	if err := s2.Run(nil); err != nil {
		t.Fatalf("Run (no recorder): %v", err)
	}
	if s2.Cycles() != cyclesWith {
		t.Errorf("recorder changed simulated time: %d vs %d cycles", cyclesWith, s2.Cycles())
	}
}

// TestFlightRecorderForcedUnwind: a watchdog micro-reboots a hung
// compartment from outside, evicting the thread spinning in it. The
// eviction is the switcher tearing the thread out, not a capability
// fault: the kernel trace keeps its forced-unwind trap, while the
// flight recorder writes neither a trap event nor a crash report, only
// the unwind.
func TestFlightRecorderForcedUnwind(t *testing.T) {
	img := NewImage("forced-unwind")
	wd := &compartment.Watchdog{
		Targets:      []compartment.WatchdogTarget{{Compartment: "victim", Quota: "default"}},
		PeriodCycles: 500_000,
		StallChecks:  3,
	}
	heartbeat := compartment.HeartbeatName("victim")
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 512, DataSize: 16,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports:   append(alloc.Imports(), sched.Imports()...),
		Exports: []*firmware.Export{{Name: "work", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				compartment.Beat(ctx, heartbeat)
				for { // hang: no beats, no traps
					ctx.Work(50_000)
				}
			}}},
	})
	wd.AddTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "prober", CodeSize: 256, DataSize: 0,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 20 && wd.Reboots[0] == 0; i++ {
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(1_000_000))
				}
				wd.Stop()
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "victim-worker", Compartment: "victim", Entry: "work",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	img.AddThread(&firmware.Thread{Name: "prober", Compartment: "prober", Entry: "main",
		Priority: 2, StackSize: 4096, TrustedStackFrames: 12})

	s := boot(t, img)
	wd.Attach(s.Kernel)
	reg := s.EnableTelemetry(1 << 12)
	rec := s.EnableFlightRecorder(1 << 12)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wd.Reboots[0] != 1 {
		t.Fatalf("watchdog reboots = %d, want 1", wd.Reboots[0])
	}

	forced := hw.TrapForcedUnwind.String()
	traced := 0
	for _, e := range reg.Ring().Events() {
		if e.Kind.String() == "trap" {
			if e.Detail != forced || e.To != "victim" || e.Thread != "victim-worker" {
				t.Errorf("trace trap %+v, want the forced unwind of victim-worker in victim", e)
			}
			traced++
		}
	}
	if traced != 1 {
		t.Errorf("trace holds %d trap events, want the 1 forced unwind", traced)
	}

	counts := map[string]int{}
	for _, e := range rec.Events() {
		counts[e.Kind.String()]++
	}
	if counts["trap"] != 0 {
		t.Errorf("recorder kept %d trap events for a forced unwind, want 0", counts["trap"])
	}
	if counts["unwind"] != 1 {
		t.Errorf("recorder unwind events = %d, want 1", counts["unwind"])
	}
	if n := rec.ReportsTotal(); n != 0 {
		t.Errorf("forced unwind produced %d crash reports, want 0", n)
	}
}
