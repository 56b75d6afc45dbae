package fleet

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/jsvm"
)

// FleetScript is the jsvm device profile's application logic: the same
// load-generator state machine as the Go fleet app, but driven by a
// JavaScript program on the microvium engine (like the §5.3.3 iotapp).
// The heavy lifting — network bring-up, MQTT, churn, draining — happens
// in host-function bindings onto the shared appDriver, so the two
// firmware shapes stay behaviorally comparable while every JS bytecode
// step costs interpreter cycles, making jsvm devices measurably heavier.
const FleetScript = `
// Fleet load generator: bring the device up, connect, then publish
// forever; the fleet horizon ends the run. park() never returns.
if (setup() == 0) { park(); }
if (connect() == 0) { park(); }
var live = 1;
while (live == 1) { live = tick(); }
park();
`

// fleetHostFunctions lists the script's imports, resolved at compile
// time; order must match appDriver.jsBindings.
var fleetHostFunctions = []string{"setup", "connect", "tick", "park"}

// fleetProgram is FleetScript compiled once per process for every jsvm
// device (a jsvm.VM only reads its Program); launch checks the error.
var fleetProgram, errFleetProgram = jsvm.Compile(FleetScript, fleetHostFunctions)

// addJSApp registers the jsvm flavor of the fleet application: the same
// compartment name and import set as the Go flavor (so the fleet audit
// policy applies unchanged), plus the microvium engine as a shared
// library and a deeper stack for the interpreter.
func addJSApp(img *firmware.Image, cfg *Config) {
	img.AddLibrary(&firmware.Library{Name: "microvium", CodeSize: 6000})
	img.AddCompartment(&firmware.Compartment{
		Name: "fleetapp", CodeSize: 4000, DataSize: 512,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 16384}},
		Imports:   fleetAppImports(cfg.quotaStormCycles() > 0),
		Exports:   []*firmware.Export{{Name: "main", MinStack: 8192, Entry: jsMain}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "fleetapp", Entry: "main",
		Priority: 3, StackSize: 48 * 1024, TrustedStackFrames: 24})
}

// jsMain runs the fleet script for the device bound to the machine.
// Every exit path parks: a returned app thread would leave the kernel
// eventless (a reported deadlock) instead of an idle device.
func jsMain(ctx api.Context, args []api.Value) []api.Value {
	a := newAppDriver(ctx)
	vm, err := jsvm.NewVM(fleetProgram, a.jsBindings())
	if err != nil {
		a.st.SetupFailures++
		return a.park()
	}
	// Every bytecode step costs interpreter cycles (§5.2).
	vm.OnStep = func() { ctx.Work(40) }
	_, _ = vm.Run()
	return a.park()
}

// jsBindings wires the fleet script's imports to the shared app driver,
// in fleetHostFunctions order.
func (a *appDriver) jsBindings() []jsvm.HostFn {
	b2n := func(ok bool) jsvm.Value {
		if ok {
			return jsvm.N(1)
		}
		return jsvm.N(0)
	}
	return []jsvm.HostFn{
		// setup() -> 1 on success
		func(args []jsvm.Value) (jsvm.Value, error) {
			return b2n(a.setup()), nil
		},
		// connect() -> 1 on success (initial connect: failure is a setup
		// failure, mirroring the Go app)
		func(args []jsvm.Value) (jsvm.Value, error) {
			ok := a.connect()
			if !ok {
				a.st.SetupFailures++
			}
			return b2n(ok), nil
		},
		// tick() -> 1 while alive
		func(args []jsvm.Value) (jsvm.Value, error) {
			return b2n(a.tick()), nil
		},
		// park() never returns.
		func(args []jsvm.Value) (jsvm.Value, error) {
			a.park()
			return jsvm.N(0), nil
		},
	}
}
