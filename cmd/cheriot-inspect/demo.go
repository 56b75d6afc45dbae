package main

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// demoDump boots a minimal firmware whose single compartment commits a
// use-after-free — allocate, stash the pointer in globals, free, reload
// the now-revoked pointer through the load filter, wait out the
// revocation sweep, then dereference — and returns the resulting black
// box. The crash report's provenance chain identifies the allocating
// compartment and the sweep that invalidated the object.
func demoDump() (*flightrec.Dump, error) {
	var rec *flightrec.Recorder // armed after boot, before the run
	img := core.NewImage("inspect-demo")
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
					return nil
				}
				ctx.Store32(obj, 0xDEAD)
				ctx.StoreCap(ctx.Globals(), obj)
				if errno := cl.Free(ctx, obj); errno != api.OK {
					return nil
				}
				stale := ctx.LoadCap(ctx.Globals()) // load filter untags it
				for i := 0; i < 64 && rec.Sweeps() == 0; i++ {
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(200_000))
				}
				ctx.Load32(stale) // tag violation: the black box snapshots here
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})

	sys, err := core.Boot(img)
	if err != nil {
		return nil, fmt.Errorf("demo boot: %w", err)
	}
	defer sys.Shutdown()
	rec = sys.EnableFlightRecorder(512)
	if err := sys.Run(nil); err != nil {
		return nil, fmt.Errorf("demo run: %w", err)
	}
	d := sys.FlightDump()
	return &d, nil
}
