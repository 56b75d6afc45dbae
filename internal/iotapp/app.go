// Package iotapp is the §5.3.3 case study: a JavaScript application that
// connects to a private IoT cloud back-end via MQTT over TLS, subscribes
// to notifications, and flashes the board's LEDs when one arrives. Most of
// the code it runs is third-party (MQTT, TLS, TCP/IP compartments, the JS
// engine); the application logic itself is a script executed by the jsvm.
//
// The package drives the full Fig. 7 scenario: boot, network setup, NTP
// sync, connect/subscribe, steady state, a "ping of death" that
// micro-reboots the TCP/IP compartment, recovery, and a delivered
// notification — while a monitor thread samples CPU load once per second
// from the scheduler's idle counter.
package iotapp

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/jsvm"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// Network addresses of the simulated deployment.
var (
	DeviceIP  = netproto.IPv4(10, 0, 0, 2)
	GatewayIP = netproto.IPv4(10, 0, 0, 1)
	DNSIP     = netproto.IPv4(10, 0, 0, 53)
	NTPIP     = netproto.IPv4(10, 0, 0, 123)
	BrokerIP  = netproto.IPv4(10, 0, 8, 1)
)

// RootSecret is the fleet's pinned TLS trust root.
var RootSecret = []byte("fleet-root-secret-2026")

// Script is the device's application logic, executed by the JS engine.
const Script = `
// IoT device main loop: connect to the cloud, subscribe, blink on
// notifications, and survive network-stack crashes by reconnecting.
phase("Setup");
net_setup();
phase("NTP Sync.");
ntp_sync();
phase("App. Setup");
var ip = resolve("broker.example");
while (ip == 0) {
	// The resolver can fail transiently (e.g. while the TCP/IP
	// compartment micro-reboots under attack): retry.
	sleep_ms(500);
	ip = resolve("broker.example");
}
var connected = 0;
while (connected == 0) {
	if (connect(ip) == 0) {
		if (subscribe("devices/led") == 0) { connected = 1; }
	}
	if (connected == 0) { sleep_ms(500); }
}
phase("Steady");
var notifications = 0;
while (notifications < 2) {
	var msg = waitmsg(20000);
	if (msg == "") {
		// The connection died (e.g. the TCP/IP compartment
		// micro-rebooted): re-establish it.
		phase("App. Setup");
		connected = 0;
		while (connected == 0) {
			if (connect(ip) == 0) {
				if (subscribe("devices/led") == 0) { connected = 1; }
			}
			if (connected == 0) { sleep_ms(500); }
		}
		phase("Steady");
	} else {
		blink(3);
		notifications = notifications + 1;
	}
}
phase("Done");
return notifications;
`

// hostFunctions lists the script's imports, resolved at compile time.
var hostFunctions = []string{
	"phase", "net_setup", "ntp_sync", "resolve", "connect",
	"subscribe", "waitmsg", "sleep_ms", "blink",
}

// PhaseMark records a phase transition.
type PhaseMark struct {
	Name  string
	Cycle uint64
}

// Sample is one CPU-load measurement.
type Sample struct {
	Second  int
	LoadPct float64
}

// Result is everything the Fig. 7 harness reports.
type Result struct {
	Phases        []PhaseMark
	Samples       []Sample
	Reboots       int
	RebootMs      float64
	Notifications int32
	LEDChanges    int
	Compartments  int
	Footprint     firmware.Footprint
	HeapHighWater uint32
	TotalSeconds  float64
	AvgLoadPct    float64
}

// App is one built case-study deployment.
type App struct {
	Sys    *core.System
	World  *netsim.World
	Broker *netsim.Broker
	Stack  *netstack.Stack

	Image *firmware.Image

	phases    []PhaseMark
	samples   []Sample
	appDone   bool
	appResult int32
	onPhase   func(name string)
}

// Build boots the deployment.
func Build() (*App, error) {
	a := &App{}
	img := core.NewImage("iot-device")
	a.Image = img
	a.Stack = netstack.AddTo(img, netstack.Config{
		DeviceIP:   DeviceIP,
		UseDHCP:    true,
		GatewayIP:  GatewayIP,
		DNSServer:  DNSIP,
		NTPServer:  NTPIP,
		RootSecret: RootSecret,
	})
	a.addJSApp(img)
	a.addMonitor(img)
	// Persistent state across micro-reboots lives in the state store
	// (§3.2.6 step 5); with it the deployment has the paper's 13
	// compartments.
	compartment.AddStateStoreTo(img)

	sys, err := core.Boot(img)
	if err != nil {
		return nil, err
	}
	a.Sys = sys
	a.Stack.Attach(sys.Kernel)

	a.World = netsim.NewWorld(sys.Board.Core, sys.Board.Net, DeviceIP)
	a.World.AddHost(GatewayIP, netsim.NewGateway(GatewayIP, DeviceIP))
	a.World.AddHost(DNSIP, netsim.NewDNSServer(DNSIP, map[string]uint32{
		"broker.example": BrokerIP,
	}))
	a.World.AddHost(NTPIP, netsim.NewNTPServer(NTPIP, sys.Board.Core.Clock, 1_750_000_000_000))
	host, broker := netsim.NewBroker(BrokerIP, RootSecret, []byte("fleet-ca"))
	a.Broker = broker
	a.World.AddHost(BrokerIP, host)
	return a, nil
}

const secondCycles = hw.DefaultHz

// addJSApp registers the application compartment running the script.
func (a *App) addJSApp(img *firmware.Image) {
	imports := append(netstack.DNSImports(), netstack.SNTPImports()...)
	imports = append(imports, netstack.MQTTImports()...)
	imports = append(imports, sched.Imports()...)
	imports = append(imports, firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceLED})
	// The app may bring the interface up — and nothing else on the raw
	// network API; the audit policy pins this down per entry point.
	imports = append(imports, firmware.Import{
		Kind: firmware.ImportCall, Target: netstack.NetAPI, Entry: netstack.FnNetworkUp})
	// Microvium runs as a shared library (§5.2); model its footprint.
	img.AddLibrary(&firmware.Library{Name: "microvium", CodeSize: 6000})
	img.AddCompartment(&firmware.Compartment{
		Name: "jsapp", CodeSize: 4000, DataSize: 512,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   imports,
		Exports:   []*firmware.Export{{Name: "main", MinStack: 8192, Entry: a.jsMain}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "jsapp", Entry: "main",
		Priority: 3, StackSize: 48 * 1024, TrustedStackFrames: 24})
}

// jsMain compiles and runs the script with the device's host functions.
func (a *App) jsMain(ctx api.Context, args []api.Value) []api.Value {
	defer func() { a.appDone = true }()
	prog, err := jsvm.Compile(Script, hostFunctions)
	if err != nil {
		a.appResult = -100
		return nil
	}
	vm, err := jsvm.NewVM(prog, a.hostBindings(ctx))
	if err != nil {
		a.appResult = -101
		return nil
	}
	// Every bytecode step costs interpreter cycles.
	vm.OnStep = func() { ctx.Work(40) }
	v, err := vm.Run()
	if err != nil {
		a.appResult = -102
		return nil
	}
	a.appResult = v.Num
	return ctx.Ret(api.W(uint32(v.Num)))
}

// hostBindings wires the script's imports to compartment calls.
func (a *App) hostBindings(ctx api.Context) []jsvm.HostFn {
	quota := func() cap.Capability { return ctx.SealedImport("default") }
	var mqttHandle api.Value
	sleep := func(cycles uint64) {
		for cycles > 0 {
			n := uint64(0xffff_ffff)
			if n > cycles {
				n = cycles
			}
			_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(uint32(n)))
			cycles -= n
		}
	}
	return []jsvm.HostFn{
		// phase(name)
		func(args []jsvm.Value) (jsvm.Value, error) {
			name := args[0].String()
			a.phases = append(a.phases, PhaseMark{Name: name, Cycle: ctx.Now()})
			if a.onPhase != nil {
				a.onPhase(name)
			}
			return jsvm.N(0), nil
		},
		// net_setup(): real network bring-up — the DHCP exchange through
		// the firewall's bootstrap window — plus the stack's buffer and
		// table initialization, ~5 s at ~35% load (Fig. 7's Setup phase,
		// "mainly spent waiting on the network").
		func(args []jsvm.Value) (jsvm.Value, error) {
			rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetworkUp, api.W(0))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return jsvm.N(-1), nil
			}
			for i := 0; i < 5; i++ {
				ctx.Work(secondCycles * 35 / 100)
				sleep(secondCycles * 65 / 100)
			}
			return jsvm.N(0), nil
		},
		// ntp_sync(): clock synchronization; the ~10 s are spent almost
		// entirely idle waiting on the network (Fig. 7's NTP phase).
		func(args []jsvm.Value) (jsvm.Value, error) {
			start := ctx.Now()
			rets, err := ctx.Call(netstack.SNTP, netstack.FnSNTPSync)
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return jsvm.N(-1), nil
			}
			if pad := uint64(10) * secondCycles; ctx.Now()-start < pad {
				sleep(pad - (ctx.Now() - start))
			}
			return jsvm.N(0), nil
		},
		// resolve(name) -> ip
		func(args []jsvm.Value) (jsvm.Value, error) {
			name := args[0].String()
			buf := ctx.StackAlloc(uint32(len(name)))
			ctx.StoreBytes(buf, []byte(name))
			view, _ := buf.SetBounds(uint32(len(name)))
			rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(view))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return jsvm.N(0), nil
			}
			return jsvm.N(int32(rets[1].AsWord())), nil
		},
		// connect(ip) -> errno
		func(args []jsvm.Value) (jsvm.Value, error) {
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
				api.C(quota()), api.W(uint32(args[0].Num)),
				api.W(netproto.PortMQTT), api.W(20_000_000))
			if err != nil {
				return jsvm.N(int32(api.ErrConnReset)), nil
			}
			if e := api.ErrnoOf(rets); e != api.OK {
				return jsvm.N(int32(e)), nil
			}
			mqttHandle = rets[1]
			return jsvm.N(0), nil
		},
		// subscribe(topic) -> errno
		func(args []jsvm.Value) (jsvm.Value, error) {
			topic := args[0].String()
			buf := ctx.StackAlloc(uint32(len(topic)))
			ctx.StoreBytes(buf, []byte(topic))
			view, _ := buf.SetBounds(uint32(len(topic)))
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTSubscribe,
				mqttHandle, api.C(view), api.W(20_000_000))
			if err != nil {
				return jsvm.N(int32(api.ErrConnReset)), nil
			}
			return jsvm.N(int32(api.ErrnoOf(rets))), nil
		},
		// waitmsg(timeoutMs) -> payload string ("" on error/timeout)
		func(args []jsvm.Value) (jsvm.Value, error) {
			out := ctx.StackAlloc(128)
			timeout := uint64(args[0].Num) * secondCycles / 1000
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTWait,
				mqttHandle, api.C(out), api.W(uint32(timeout)))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return jsvm.S(""), nil
			}
			return jsvm.S(string(ctx.LoadBytes(out.WithAddress(out.Base()), rets[1].AsWord()))), nil
		},
		// sleep_ms(n)
		func(args []jsvm.Value) (jsvm.Value, error) {
			sleep(uint64(args[0].Num) * secondCycles / 1000)
			return jsvm.N(0), nil
		},
		// blink(n): flash the LED bank n times.
		func(args []jsvm.Value) (jsvm.Value, error) {
			led := ctx.MMIO(firmware.DeviceLED)
			for i := int32(0); i < args[0].Num; i++ {
				ctx.Store32(led.WithAddress(hw.LEDBase+hw.LEDState), 0xff)
				sleep(secondCycles / 50)
				ctx.Store32(led.WithAddress(hw.LEDBase+hw.LEDState), 0)
				sleep(secondCycles / 50)
			}
			return jsvm.N(0), nil
		},
	}
}

// addMonitor registers the idle-load instrumentation (§5.3.3: "an idle
// thread that wakes up every second ... query the scheduler for the time
// spent idle"). It takes ~10 KB of code/data, included in the totals.
func (a *App) addMonitor(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name: "monitor", CodeSize: 9000, DataSize: 1000,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "run", MinStack: 512, Entry: a.monitorLoop}},
	})
	img.AddThread(&firmware.Thread{Name: "monitor", Compartment: "monitor", Entry: "run",
		Priority: 8, StackSize: 4096, TrustedStackFrames: 8})
}

func (a *App) monitorLoop(ctx api.Context, args []api.Value) []api.Value {
	idle := func() uint64 {
		rets, err := ctx.Call(sched.Name, sched.EntryTimeIdle)
		if err != nil || len(rets) < 2 {
			return 0
		}
		return uint64(rets[0].AsWord()) | uint64(rets[1].AsWord())<<32
	}
	lastIdle := idle()
	lastCycle := ctx.Now()
	sec := 0
	for !a.appDone {
		if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(uint32(secondCycles))); err != nil {
			break
		}
		nowIdle, nowCycle := idle(), ctx.Now()
		window := nowCycle - lastCycle
		if window == 0 {
			continue
		}
		idleDelta := nowIdle - lastIdle
		load := 100 * (1 - float64(idleDelta)/float64(window))
		if load < 0 {
			load = 0
		}
		sec++
		a.samples = append(a.samples, Sample{Second: sec, LoadPct: load})
		lastIdle, lastCycle = nowIdle, nowCycle
	}
	return nil
}

// Run executes the Fig. 7 scenario: the harness injects the ping of death
// 7 s into the first steady phase and publishes notifications 5 s into
// each steady period after recovery.
func (a *App) Run() (*Result, error) {
	steadyCount := 0
	a.onPhase = func(name string) {
		if name != "Steady" {
			return
		}
		steadyCount++
		if steadyCount == 1 {
			// 7 s into steady state, the "ping of death" arrives, spoofed
			// from the broker so it passes the ingress filter.
			a.Sys.Board.Core.After(7*secondCycles, func() {
				a.World.InjectRaw(a.World.PingOfDeath(BrokerIP))
			})
			return
		}
		// On every recovery, the back-end pushes the notification 5 s in,
		// and a second one to finish the run. (A persistent cloud retries
		// deliveries; under fault-injection storms there may be several
		// recoveries before one steady period survives long enough.)
		a.Sys.Board.Core.After(5*secondCycles, func() {
			a.Broker.Publish("devices/led", []byte("blink"))
		})
		a.Sys.Board.Core.After(8*secondCycles, func() {
			a.Broker.Publish("devices/led", []byte("blink"))
		})
	}
	const budget = 120 * secondCycles
	err := a.Sys.Run(func() bool { return a.appDone || a.Sys.Cycles() > budget })
	if err != nil {
		return nil, err
	}
	if !a.appDone {
		return nil, fmt.Errorf("iotapp: scenario did not complete within %d cycles", uint64(budget))
	}

	res := &Result{
		Phases:        a.phases,
		Samples:       a.samples,
		Reboots:       a.Stack.TCPIPRebooter.Reboots,
		RebootMs:      float64(a.Stack.TCPIPRebooter.LastDuration) / float64(hw.DefaultHz) * 1000,
		Notifications: a.appResult,
		LEDChanges:    len(a.Sys.Board.LEDs.Trace),
		Compartments:  len(a.Image.Compartments),
		Footprint:     a.Image.Measure(),
		TotalSeconds:  float64(a.Sys.Cycles()) / float64(hw.DefaultHz),
	}
	heap := a.Sys.Kernel.HeapRegion().Size
	res.HeapHighWater = heap - a.Sys.Alloc.Stats().FreeBytes
	var sum float64
	for _, s := range a.samples {
		sum += s.LoadPct
	}
	if len(a.samples) > 0 {
		res.AvgLoadPct = sum / float64(len(a.samples))
	}
	return res, nil
}

// Shutdown reaps the deployment's threads.
func (a *App) Shutdown() { a.Sys.Shutdown() }
