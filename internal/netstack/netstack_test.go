package netstack_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/sched"
)

var (
	deviceIP = netproto.IPv4(10, 0, 0, 2)
	dnsIP    = netproto.IPv4(10, 0, 0, 53)
	ntpIP    = netproto.IPv4(10, 0, 0, 123)
	brokerIP = netproto.IPv4(10, 0, 8, 1)
	rootKey  = []byte("iot-fleet-root-secret")
)

// rig is one booted device attached to a simulated internet.
type rig struct {
	sys    *core.System
	world  *netsim.World
	broker *netsim.Broker
	done   *bool
}

// buildRig boots a device whose "app" compartment runs appMain on a
// dedicated thread.
func buildRig(t *testing.T, appMain api.Entry, extra ...firmware.Import) *rig {
	t.Helper()
	img := core.NewImage("netstack-test")
	netstack.AddTo(img, netstack.Config{
		DeviceIP:   deviceIP,
		DNSServer:  dnsIP,
		NTPServer:  ntpIP,
		RootSecret: rootKey,
	})
	// The hardened queue is the fourth handle issuer the forged-handle
	// table presents.
	libs.AddQueueCompTo(img)
	imports := append(netstack.NetImports(), netstack.DNSImports()...)
	imports = append(imports, netstack.SNTPImports()...)
	imports = append(imports, netstack.TLSImports()...)
	imports = append(imports, netstack.MQTTImports()...)
	imports = append(imports, extra...)
	done := new(bool)
	wrapped := func(ctx api.Context, args []api.Value) []api.Value {
		defer func() { *done = true }()
		return appMain(ctx, args)
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 2048, DataSize: 128,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   imports,
		Exports:   []*firmware.Export{{Name: "main", MinStack: 8192, Entry: wrapped}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 3, StackSize: 48 * 1024, TrustedStackFrames: 24})

	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)

	w := netsim.NewWorld(s.Board.Core, s.Board.Net, deviceIP)
	w.AddHost(dnsIP, netsim.NewDNSServer(dnsIP, map[string]uint32{
		"broker.example": brokerIP,
	}))
	w.AddHost(ntpIP, netsim.NewSharedNTPServer(ntpIP, 1_750_000_000_000))
	host, broker := netsim.NewBroker(brokerIP, rootKey, []byte("fleet-ca"))
	w.AddHost(brokerIP, host)

	return &rig{sys: s, world: w, broker: broker, done: done}
}

// run drives the rig until the app signals done or the cycle budget runs
// out; it fails the test on a missed completion.
func (r *rig) run(t *testing.T, budget uint64) {
	t.Helper()
	err := r.sys.Run(func() bool {
		return *r.done || r.sys.Cycles() > budget
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !*r.done {
		t.Fatalf("app did not finish within %d cycles", budget)
	}
}

func TestUDPEndToEndDNS(t *testing.T) {
	var ip uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		name := ctx.StackAlloc(16)
		ctx.StoreBytes(name, []byte("broker.example"))
		view, _ := name.SetBounds(uint32(len("broker.example")))
		rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(view))
		if err != nil {
			t.Errorf("resolve: %v", err)
		} else if e := api.ErrnoOf(rets); e != api.OK {
			t.Errorf("resolve errno: %v", e)
		} else {
			ip = rets[1].AsWord()
		}
		return nil
	})
	r.run(t, 50_000_000)
	if ip != brokerIP {
		t.Fatalf("resolved %#x, want %#x", ip, brokerIP)
	}
}

func TestDNSMiss(t *testing.T) {
	var errno api.Errno
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		name := ctx.StackAlloc(16)
		ctx.StoreBytes(name, []byte("no.such.name"))
		view, _ := name.SetBounds(uint32(len("no.such.name")))
		rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(view))
		if err != nil {
			t.Errorf("resolve: %v", err)
			return nil
		}
		errno = api.ErrnoOf(rets)
		return nil
	})
	r.run(t, 50_000_000)
	if errno != api.ErrNotFound {
		t.Fatalf("errno = %v, want not-found", errno)
	}
}

func TestSNTPSync(t *testing.T) {
	var millis uint64
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		rets, err := ctx.Call(netstack.SNTP, netstack.FnSNTPSync)
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("sync: %v %v", err, rets)
			return nil
		}
		rets, err = ctx.Call(netstack.SNTP, netstack.FnSNTPNow)
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("now: %v", err)
			return nil
		}
		millis = uint64(rets[1].AsWord()) | uint64(rets[2].AsWord())<<32
		return nil
	})
	r.run(t, 50_000_000)
	if millis < 1_750_000_000_000 || millis > 1_750_000_100_000 {
		t.Fatalf("synced time = %d", millis)
	}
}

func TestMQTTOverTLSRoundTrip(t *testing.T) {
	var notification []byte
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
			api.C(quota), api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("mqtt connect: %v %v", err, rets)
			return nil
		}
		handle := rets[1]
		topic := ctx.StackAlloc(16)
		ctx.StoreBytes(topic, []byte("devices/led"))
		tview, _ := topic.SetBounds(uint32(len("devices/led")))
		rets, err = ctx.Call(netstack.MQTT, netstack.FnMQTTSubscribe,
			handle, api.C(tview), api.W(10_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("subscribe: %v", err)
			return nil
		}
		out := ctx.StackAlloc(64)
		rets, err = ctx.Call(netstack.MQTT, netstack.FnMQTTWait,
			handle, api.C(out), api.W(100_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("wait: %v %v", err, rets)
			return nil
		}
		notification = ctx.LoadBytes(out.WithAddress(out.Base()), rets[1].AsWord())
		return nil
	})
	// Push a notification once the subscription is up.
	var pushed bool
	r.sys.Board.Core.At(1, func() { pollSubscribe(r, &pushed) })
	r.run(t, 1_200_000_000)
	if string(notification) != "blink:3" {
		t.Fatalf("notification = %q", notification)
	}
	if r.broker.Connects != 1 || r.broker.Subscribes != 1 {
		t.Fatalf("broker saw %d connects, %d subscribes", r.broker.Connects, r.broker.Subscribes)
	}
}

// pollSubscribe publishes as soon as the broker has a subscriber,
// re-arming itself until then.
func pollSubscribe(r *rig, pushed *bool) {
	if *pushed {
		return
	}
	if r.broker.Subscribes > 0 {
		*pushed = true
		r.broker.Publish("devices/led", []byte("blink:3"))
		return
	}
	r.sys.Board.Core.After(100_000, func() { pollSubscribe(r, pushed) })
}

func TestPingOfDeathMicroReboot(t *testing.T) {
	phase := 0
	var notification []byte
	appMain := func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		connect := func() (api.Value, bool) {
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
				api.C(quota), api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return api.Value{}, false
			}
			handle := rets[1]
			topic := ctx.StackAlloc(16)
			ctx.StoreBytes(topic, []byte("devices/led"))
			tview, _ := topic.SetBounds(uint32(len("devices/led")))
			rets, err = ctx.Call(netstack.MQTT, netstack.FnMQTTSubscribe,
				handle, api.C(tview), api.W(10_000_000))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				return api.Value{}, false
			}
			return handle, true
		}
		handle, ok := connect()
		if !ok {
			t.Error("initial connect failed")
			return nil
		}
		phase = 1 // connected; the PoD will hit now
		out := ctx.StackAlloc(64)
		for attempt := 0; attempt < 8; attempt++ {
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTWait,
				handle, api.C(out), api.W(60_000_000))
			if err == nil && api.ErrnoOf(rets) == api.OK {
				notification = ctx.LoadBytes(out.WithAddress(out.Base()), rets[1].AsWord())
				return nil
			}
			// The connection died (micro-reboot): re-establish, exactly
			// like the §5.3.3 application.
			phase = 2
			if handle, ok = connect(); !ok {
				ctx.Work(1_000_000)
			}
		}
		t.Error("never recovered after the ping of death")
		return nil
	}
	r := buildRig(t, appMain)

	// Inject the ping of death once connected (spoofed from the broker's
	// address so it passes the ingress filter), then publish after the
	// stack has recovered and resubscribed.
	var injected, pushed bool
	var poll func()
	poll = func() {
		switch {
		case !injected && phase >= 1:
			injected = true
			r.world.InjectRaw(r.world.PingOfDeath(brokerIP))
		case injected && !pushed && phase == 2 && r.broker.Subscribes >= 2:
			pushed = true
			r.broker.Publish("devices/led", []byte("recovered"))
			return
		}
		r.sys.Board.Core.After(200_000, poll)
	}
	r.sys.Board.Core.After(200_000, poll)

	r.run(t, 4_000_000_000)
	if string(notification) != "recovered" {
		t.Fatalf("notification = %q", notification)
	}
	if r.sys.Kernel.Comp(netstack.TCPIP).Reboots() != 1 {
		t.Fatalf("reboots = %d, want 1", r.sys.Kernel.Comp(netstack.TCPIP).Reboots())
	}
	// §5.3.3: the TCP/IP micro-reboot completes in 0.27 s.
	ms := float64(r.sys.Kernel.Comp(netstack.TCPIP).HandlerCycles()) / 33_000_000 * 1000
	if ms > 270 {
		t.Fatalf("micro-reboot took %.1f ms, paper reports 270 ms", ms)
	}
}

// TestMQTTCloseReconnectChurn opens, closes, and reopens the MQTT/TLS
// session repeatedly and asserts the broker saw every session come and
// go (none left live) and that the cycle leaks no capabilities: the
// app's heap quota returns to its pre-connect level, and the device's
// flight recorder shows no live heap allocations owned by the app or
// the MQTT compartment once the last session closes.
func TestMQTTCloseReconnectChurn(t *testing.T) {
	const rounds = 4
	var quotaBefore, quotaAfter uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		cl := alloc.Client{}
		quota := func() api.Value { return api.C(ctx.SealedImport("default")) }
		topic := ctx.StackAlloc(16)
		ctx.StoreBytes(topic, []byte("devices/led"))
		tview, _ := topic.SetBounds(uint32(len("devices/led")))

		var errno api.Errno
		if quotaBefore, errno = cl.QuotaRemaining(ctx); errno != api.OK {
			t.Errorf("quota before: %v", errno)
			return nil
		}
		for i := 0; i < rounds; i++ {
			rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
				quota(), api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("round %d connect: %v %v", i, err, rets)
				return nil
			}
			handle := rets[1]
			rets, err = ctx.Call(netstack.MQTT, netstack.FnMQTTSubscribe,
				handle, api.C(tview), api.W(10_000_000))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("round %d subscribe: %v", i, err)
				return nil
			}
			rets, err = ctx.Call(netstack.MQTT, netstack.FnMQTTClose, quota(), handle)
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("round %d close: %v %v", i, err, rets)
				return nil
			}
		}
		if quotaAfter, errno = cl.QuotaRemaining(ctx); errno != api.OK {
			t.Errorf("quota after: %v", errno)
		}
		// Let the final close's teardown frames reach the broker before
		// the run stops.
		_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(50_000_000))
		return nil
	}, append(alloc.Imports(),
		firmware.Import{Kind: firmware.ImportCall, Target: sched.Name, Entry: sched.EntrySleep})...)
	rec := r.sys.EnableFlightRecorder(2048)
	r.run(t, 3_000_000_000)

	if quotaBefore == 0 || quotaAfter != quotaBefore {
		t.Errorf("heap quota leaked across churn: %d before, %d after", quotaBefore, quotaAfter)
	}
	if r.broker.Connects != rounds {
		t.Errorf("broker connects = %d, want %d", r.broker.Connects, rounds)
	}
	if r.broker.Subscribes != rounds {
		t.Errorf("broker subscribes = %d, want %d", r.broker.Subscribes, rounds)
	}
	if live := r.broker.LiveSessions(); live != 0 {
		t.Errorf("broker still holds %d live sessions after the last close", live)
	}
	for _, a := range rec.LiveAllocations() {
		if a.Owner == "app" || a.Owner == netstack.MQTT {
			t.Errorf("leaked capability: live allocation #%d (%d bytes at 0x%08x) owned by %q",
				a.Seq, a.Size, a.Base, a.Owner)
		}
	}
}
