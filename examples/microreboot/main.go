// Micro-reboot: fault tolerance at compartment granularity (§3.2.6).
//
// A "kvstore" service compartment keeps client records on the heap and a
// counter in its globals. A buggy request corrupts it; the compartment's
// error handler micro-reboots it: other threads are rewound out, all heap
// memory owned by its quota is released, globals and state are reset, and
// service resumes — while the rest of the system keeps running.
//
// Run with: go run ./examples/microreboot
package main

import (
	"errors"
	"fmt"
	"log"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
)

type kvState struct {
	entries map[uint32]uint32
}

func main() {
	img := core.NewImage("microreboot-demo")
	reb := &compartment.Rebooter{Compartment: "kvstore", QuotaImport: "default"}

	img.AddCompartment(&firmware.Compartment{
		Name:     "kvstore",
		CodeSize: 1024, DataSize: 64,
		AllocCaps:    []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:      append(alloc.Imports(), sched.Imports()...),
		State:        func() interface{} { return &kvState{entries: map[uint32]uint32{}} },
		ErrorHandler: reb.Handler(nil),
		Exports: []*firmware.Export{
			{Name: "put", MinStack: 512, Entry: kvPut},
			{Name: "get", MinStack: 512, Entry: kvGet},
			{Name: "corrupt", MinStack: 512, Entry: kvCorrupt},
		},
	})

	img.AddCompartment(&firmware.Compartment{
		Name:     "client",
		CodeSize: 512, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "kvstore", Entry: "put"},
			{Kind: firmware.ImportCall, Target: "kvstore", Entry: "get"},
			{Kind: firmware.ImportCall, Target: "kvstore", Entry: "corrupt"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024, Entry: clientMain}},
	})

	img.AddThread(&firmware.Thread{Name: "client", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})

	sys, err := core.Boot(img)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer sys.Shutdown()
	reb.Kernel = sys.Kernel

	if err := sys.Run(nil); err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Printf("\nmicro-reboots: %d, last took %.3f ms of simulated time\n",
		reb.Reboots, float64(reb.LastDuration)/float64(hw.DefaultHz)*1000)
}

func kvPut(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*kvState)
	st.entries[args[0].AsWord()] = args[1].AsWord()
	// Each entry also takes heap space from the compartment's quota.
	if _, errno := (alloc.Client{}).Malloc(ctx, 64); errno != api.OK {
		return api.EV(errno)
	}
	return api.EV(api.OK)
}

func kvGet(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*kvState)
	v, ok := st.entries[args[0].AsWord()]
	if !ok {
		return api.EV(api.ErrNotFound)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(v))
}

// kvCorrupt simulates a wild write in the service.
func kvCorrupt(ctx api.Context, args []api.Value) []api.Value {
	g := ctx.Globals()
	ctx.Store32(g.WithAddress(g.Top()+64), 0xbad) // out of bounds: traps
	return nil
}

func clientMain(ctx api.Context, args []api.Value) []api.Value {
	report := func(format string, a ...interface{}) { fmt.Printf(format+"\n", a...) }

	for k := uint32(1); k <= 3; k++ {
		if rets, err := ctx.Call("kvstore", "put", api.W(k), api.W(k*100)); err != nil || api.ErrnoOf(rets) != api.OK {
			report("put %d failed: %v", k, err)
			return nil
		}
	}
	report("stored 3 entries in kvstore")

	report("triggering the corruption bug...")
	_, err := ctx.Call("kvstore", "corrupt")
	if errors.Is(err, api.ErrUnwound) {
		report("kvstore faulted; its handler micro-rebooted the compartment")
	} else {
		report("unexpected: %v", err)
	}

	// After the micro-reboot the store is pristine: old entries are gone
	// (state reset), but the service is fully functional.
	if rets, err := ctx.Call("kvstore", "get", api.W(1)); err == nil && api.ErrnoOf(rets) == api.ErrNotFound {
		report("entry 1 is gone: state was reset to pristine")
	} else {
		report("unexpected get result: %v %v", err, rets)
	}
	if rets, err := ctx.Call("kvstore", "put", api.W(9), api.W(900)); err == nil && api.ErrnoOf(rets) == api.OK {
		report("kvstore accepts new entries: service restored")
	}
	if rets, err := ctx.Call("kvstore", "get", api.W(9)); err == nil && len(rets) > 1 {
		report("get(9) = %d", rets[1].AsWord())
	}
	return nil
}
