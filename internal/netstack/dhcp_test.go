package netstack_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/netstack"
)

var gatewayIP = netproto.IPv4(10, 0, 0, 1)

// buildDHCPRig is buildRig with a DHCP-configured stack and a gateway.
func buildDHCPRig(t *testing.T, appMain api.Entry) *rig {
	t.Helper()
	img := core.NewImage("dhcp-test")
	netstack.AddTo(img, netstack.Config{
		DeviceIP:   deviceIP,
		UseDHCP:    true,
		GatewayIP:  gatewayIP,
		DNSServer:  dnsIP,
		NTPServer:  ntpIP,
		RootSecret: rootKey,
	})
	done := new(bool)
	wrapped := func(ctx api.Context, args []api.Value) []api.Value {
		defer func() { *done = true }()
		return appMain(ctx, args)
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 2048, DataSize: 128,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   netstack.NetImports(),
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
	w.AddHost(gatewayIP, netsim.NewGateway(gatewayIP, deviceIP))
	w.AddHost(dnsIP, netsim.NewDNSServer(dnsIP, map[string]uint32{"broker.example": brokerIP}))
	return &rig{sys: s, world: w, done: done}
}

// TestDHCPBringUp: the stack starts with no address, obtains its lease
// through the bootstrap window, and ordinary traffic works afterwards.
func TestDHCPBringUp(t *testing.T) {
	var upErr, resolveOK api.Errno = 99, 99
	r := buildDHCPRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetworkUp, api.W(0))
		if err != nil {
			t.Errorf("network_up: %v", err)
			return nil
		}
		upErr = api.ErrnoOf(rets)
		// A DNS query proves post-lease unicast traffic works (and that
		// the bootstrap window closed cleanly behind us).
		name := ctx.StackAlloc(16)
		ctx.StoreBytes(name, []byte("broker.example"))
		view, _ := name.SetBounds(uint32(len("broker.example")))
		quota := ctx.SealedImport("default")
		h, err := ctx.Call(netstack.NetAPI, netstack.FnNetConnectUDP,
			api.C(quota), api.W(dnsIP), api.W(netproto.PortDNS))
		if err != nil || api.ErrnoOf(h) != api.OK {
			t.Errorf("connect: %v", err)
			return nil
		}
		if rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetSend, h[1], api.C(view)); err != nil {
			t.Errorf("send: %v", err)
			return nil
		} else {
			resolveOK = api.ErrnoOf(rets)
		}
		return nil
	})
	r.run(t, 100_000_000)
	if upErr != api.OK {
		t.Fatalf("network_up = %v", upErr)
	}
	if resolveOK != api.OK {
		t.Fatalf("post-DHCP send = %v", resolveOK)
	}
}

// TestDHCPIdempotent: a second bring-up with a live lease is a cheap
// no-op.
func TestDHCPIdempotent(t *testing.T) {
	var first, second api.Errno
	var cyclesSecond uint64
	r := buildDHCPRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		rets, _ := ctx.Call(netstack.NetAPI, netstack.FnNetworkUp, api.W(0))
		first = api.ErrnoOf(rets)
		start := ctx.Now()
		rets, _ = ctx.Call(netstack.NetAPI, netstack.FnNetworkUp, api.W(0))
		second = api.ErrnoOf(rets)
		cyclesSecond = ctx.Now() - start
		return nil
	})
	r.run(t, 100_000_000)
	if first != api.OK || second != api.OK {
		t.Fatalf("bring-ups = %v, %v", first, second)
	}
	if cyclesSecond > 10_000 {
		t.Fatalf("idempotent bring-up cost %d cycles; it re-ran DHCP", cyclesSecond)
	}
}
