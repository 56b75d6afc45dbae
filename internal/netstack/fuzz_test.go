package netstack_test

import (
	"math/rand"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netstack"
)

// TestFrameFuzzInjection storms the device with malformed frames while the
// application uses the network. Whatever the frames do — get dropped at
// the firewall, get rejected by careful parsing, or trap the TCP/IP
// compartment into a micro-reboot — the driver and the application must
// survive, and the stack must still work afterwards.
func TestFrameFuzzInjection(t *testing.T) {
	var before, after uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		resolve := func() uint32 {
			name := ctx.StackAlloc(16)
			ctx.StoreBytes(name, []byte("broker.example"))
			view, _ := name.SetBounds(uint32(len("broker.example")))
			// Retry over reboots: a fuzz frame may take the stack down
			// mid-query.
			for attempt := 0; attempt < 10; attempt++ {
				rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(view))
				if err == nil && api.ErrnoOf(rets) == api.OK {
					return rets[1].AsWord()
				}
				ctx.Work(1_000_000)
			}
			return 0
		}
		before = resolve()
		// Let the fuzz storm land while we wait.
		for i := 0; i < 40; i++ {
			ctx.Work(2_000_000)
		}
		after = resolve()
		return nil
	})

	// Storm: 150 seeded-random frames, some spoofed from allowed hosts so
	// they pass ingress filtering, interleaved with the app's traffic.
	rng := rand.New(rand.NewSource(0xC0FFEE))
	allowed := []uint32{dnsIP, ntpIP, brokerIP}
	for i := 0; i < 150; i++ {
		delay := uint64(500_000 + rng.Intn(60_000_000))
		n := 1 + rng.Intn(64)
		frame := make([]byte, n)
		rng.Read(frame)
		if n >= 12 && rng.Intn(2) == 0 {
			// Half the frames carry a plausible header so they reach the
			// TCP/IP parser: correct dst, allowed src, random rest.
			netproto.Put32(frame[0:], deviceIP)
			netproto.Put32(frame[4:], allowed[rng.Intn(len(allowed))])
			frame[8] = byte(1 + rng.Intn(3))
		}
		f := frame
		r.sys.Board.Core.After(delay, func() { r.world.InjectRaw(f) })
	}

	r.run(t, 2_000_000_000)
	if before != brokerIP {
		t.Fatalf("resolution before storm = %#x", before)
	}
	if after != brokerIP {
		t.Fatalf("stack dead after fuzz storm: resolve = %#x (reboots: %d)",
			after, r.sys.Kernel.Comp(netstack.TCPIP).Reboots())
	}
}

// TestQuotaDelegationIsolation demonstrates the §3.2.3 property the
// design argues for: a compartment that exhausts its own quota through
// delegating APIs only hurts itself — services with dedicated quotas keep
// working.
func TestQuotaDelegationIsolation(t *testing.T) {
	var exhausted bool
	var dnsWorks uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		// Burn the app's whole quota on connection handles.
		for i := 0; i < 2000; i++ {
			rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetConnectUDP,
				api.C(quota), api.W(brokerIP), api.W(1000+uint32(i)))
			if err != nil {
				t.Errorf("connect: %v", err)
				return nil
			}
			if api.ErrnoOf(rets) != api.OK {
				exhausted = true
				break
			}
		}
		// The DNS resolver allocates from its own dedicated quota
		// (§3.2.3): the app's self-inflicted exhaustion cannot starve it.
		name := ctx.StackAlloc(16)
		ctx.StoreBytes(name, []byte("broker.example"))
		view, _ := name.SetBounds(uint32(len("broker.example")))
		rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(view))
		if err == nil && api.ErrnoOf(rets) == api.OK {
			dnsWorks = rets[1].AsWord()
		}
		return nil
	})
	r.run(t, 500_000_000)
	if !exhausted {
		t.Fatal("the app never exhausted its quota (or socket slots)")
	}
	if dnsWorks != brokerIP {
		t.Fatal("the resolver was starved by another compartment's exhaustion")
	}
}
