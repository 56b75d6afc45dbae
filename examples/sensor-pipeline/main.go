// Sensor pipeline: a multi-compartment, multi-thread deployment built
// from the RTOS's communication primitives.
//
//	sampler ──(hardened message queue)── processor ── console
//	                                         │
//	                                    thread pool
//
// A sampler thread produces readings into a queue owned by the hardened
// queue compartment (opaque handle, buffer paid for by the sampler's
// delegated quota, §3.2.3/§3.2.4). A processor thread consumes them,
// dispatches an alert job to the thread pool when a reading crosses a
// threshold, and logs through the console compartment — the only one with
// UART access.
//
// Run with: go run ./examples/sensor-pipeline
package main

import (
	"fmt"
	"log"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/libs"
)

// queueHandle is shared between the sampler and processor through a word
// of sampler-owned, processor-readable state; for the example we pass it
// via a tiny rendezvous compartment instead, keeping every flow explicit.
type rendezvousState struct {
	handle cap.Capability
}

const samples = 12

func main() {
	img := core.NewImage("sensor-pipeline")
	libs.AddQueueCompTo(img)
	libs.AddConsoleTo(img)

	pool := &libs.Pool{
		Jobs:    []libs.Job{{Target: "alerts", Entry: "raise"}},
		Workers: 1,
	}
	pool.AddTo(img)

	// Rendezvous: the sampler deposits the queue handle, the processor
	// collects it. Sealed handles are plain capabilities, so handing one
	// over IS granting access — nothing else is needed.
	img.AddCompartment(&firmware.Compartment{
		Name: "rendezvous", CodeSize: 128, DataSize: 16,
		State: func() interface{} { return &rendezvousState{} },
		Exports: []*firmware.Export{
			{Name: "put", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.State().(*rendezvousState).handle = args[0].Cap
				return api.EV(api.OK)
			}},
			{Name: "get", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				h := ctx.State().(*rendezvousState).handle
				if !h.Valid() {
					return api.EV(api.ErrNotFound)
				}
				return ctx.Ret(api.W(uint32(api.OK)), api.C(h))
			}},
		},
	})

	// Alerts compartment: the only job the thread pool can run.
	img.AddCompartment(&firmware.Compartment{
		Name: "alerts", CodeSize: 256, DataSize: 0,
		Imports: libs.ConsoleImports(),
		Exports: []*firmware.Export{{Name: "raise", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				libs.Print(ctx, "ALERT: reading over threshold")
				return api.EV(api.OK)
			}}},
	})

	// Sampler: creates the queue on its own quota and produces readings.
	img.AddCompartment(&firmware.Compartment{
		Name: "sampler", CodeSize: 512, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(libs.QueueCompImports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "rendezvous", Entry: "put"}),
		Exports: []*firmware.Export{{Name: "run", MinStack: 2048,
			Entry: samplerMain}},
	})

	// Processor: consumes readings, logs, dispatches alerts.
	img.AddCompartment(&firmware.Compartment{
		Name: "processor", CodeSize: 512, DataSize: 0,
		Imports: append(append(append(libs.QueueCompImports(), libs.ConsoleImports()...),
			libs.PoolImports()...),
			firmware.Import{Kind: firmware.ImportCall, Target: "rendezvous", Entry: "get"}),
		Exports: []*firmware.Export{{Name: "run", MinStack: 2048,
			Entry: processorMain}},
	})

	img.AddThread(&firmware.Thread{Name: "sampler", Compartment: "sampler", Entry: "run",
		Priority: 3, StackSize: 8192, TrustedStackFrames: 16})
	img.AddThread(&firmware.Thread{Name: "processor", Compartment: "processor", Entry: "run",
		Priority: 2, StackSize: 8192, TrustedStackFrames: 16})

	sys, err := core.Boot(img)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer sys.Shutdown()
	if err := sys.Run(nil); err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Print(sys.Board.UART.Output())
	fmt.Printf("\npipeline finished in %.2f simulated ms; %d alert jobs ran\n",
		float64(sys.Cycles())/float64(hw.DefaultHz)*1000, libs.PoolCompleted(sys.Kernel))
}

func samplerMain(ctx api.Context, args []api.Value) []api.Value {
	quota := ctx.SealedImport("default")
	rets, err := ctx.Call(libs.QueueComp, libs.FnQCreate, api.C(quota), api.W(4), api.W(4))
	if err != nil || api.ErrnoOf(rets) != api.OK {
		log.Printf("q_create failed: %v", err)
		return nil
	}
	handle := rets[1]
	if _, err := ctx.Call("rendezvous", "put", handle); err != nil {
		return nil
	}
	elem := ctx.StackAlloc(4)
	// A deterministic "sensor": a drifting sawtooth with a spike.
	for i := 0; i < samples; i++ {
		reading := uint32(20 + (i*7)%15)
		if i == 8 {
			reading = 95 // the spike that triggers the alert
		}
		ctx.Store32(elem, reading)
		if rets, err := ctx.Call(libs.QueueComp, libs.FnQSend,
			handle, api.C(elem), api.W(0)); err != nil || api.ErrnoOf(rets) != api.OK {
			log.Printf("q_send failed: %v", err)
			return nil
		}
		ctx.Work(50_000) // sampling interval
	}
	return nil
}

func processorMain(ctx api.Context, args []api.Value) []api.Value {
	var handle api.Value
	for {
		rets, err := ctx.Call("rendezvous", "get")
		if err != nil {
			return nil
		}
		if api.ErrnoOf(rets) == api.OK {
			handle = rets[1]
			break
		}
		ctx.Yield() // the sampler hasn't created the queue yet
	}
	out := ctx.StackAlloc(4)
	for i := 0; i < samples; i++ {
		rets, err := ctx.Call(libs.QueueComp, libs.FnQReceive, handle, api.C(out), api.W(0))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			log.Printf("q_receive failed: %v", err)
			return nil
		}
		reading := ctx.Load32(out)
		libs.Print(ctx, fmt.Sprintf("reading %2d: %d", i, reading))
		if reading > 90 {
			_, _ = ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(0))
		}
	}
	return nil
}
