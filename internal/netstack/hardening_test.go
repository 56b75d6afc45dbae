package netstack_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/token"
)

// TestNetAPIRejectsForgedHandles: each compartment that hands out sealed
// handles (the network API's sockets, TLS connections, MQTT sessions and
// the hardened queue's queues) accepts only its own. Each is presented a
// plain capability, a word, an object sealed under the caller's own key
// and a live handle another issuer handed out, and refuses all four with
// its compartment's errno (ErrInvalid in the netstack, the unseal's in
// the queue), without unwinding and without charging the caller's quota.
// Each then accepts its own live handle.
func TestNetAPIRejectsForgedHandles(t *testing.T) {
	type issuer struct {
		comp, entry string
		// args are the entry's arguments, handle first.
		args func(handle, buf api.Value) []api.Value
		// foreign names the issuer whose live handle is presented.
		foreign string
		// want is the errno for a plain capability, a word, an object
		// sealed under the caller's key and the foreign handle.
		want [4]api.Errno
	}
	invalid := [4]api.Errno{api.ErrInvalid, api.ErrInvalid, api.ErrInvalid, api.ErrInvalid}
	send := func(h, buf api.Value) []api.Value { return []api.Value{h, buf} }
	issuers := []issuer{
		{netstack.NetAPI, netstack.FnNetSend, send, netstack.TLS, invalid},
		{netstack.TLS, netstack.FnTLSSend, send, netstack.NetAPI, invalid},
		{netstack.MQTT, netstack.FnMQTTPublish,
			func(h, buf api.Value) []api.Value { return []api.Value{h, buf, buf} }, libs.QueueComp, invalid},
		{libs.QueueComp, libs.FnQSend,
			func(h, buf api.Value) []api.Value { return []api.Value{h, buf, api.W(0)} }, netstack.MQTT,
			[4]api.Errno{api.ErrInvalid, api.ErrInvalid, api.ErrNotPermitted, api.ErrNotPermitted}},
	}
	type result struct {
		entry, forgery string
		got, want      api.Errno
	}
	var results []result
	genuine := map[string]api.Errno{}
	var quotaBefore, quotaAfter uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := api.C(ctx.SealedImport("default"))
		live := map[string]api.Value{}
		for _, c := range []struct {
			comp, entry string
			args        []api.Value
		}{
			{netstack.NetAPI, netstack.FnNetConnectUDP, []api.Value{quota, api.W(dnsIP), api.W(netproto.PortDNS)}},
			{netstack.TLS, netstack.FnTLSConnect, []api.Value{quota, api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000)}},
			{netstack.MQTT, netstack.FnMQTTConnect, []api.Value{quota, api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000)}},
			{libs.QueueComp, libs.FnQCreate, []api.Value{quota, api.W(4), api.W(4)}},
		} {
			rets, err := ctx.Call(c.comp, c.entry, c.args...)
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("%s: %v %v", c.entry, err, rets)
				return nil
			}
			live[c.comp] = rets[1]
		}
		// An object sealed under *our own* token key: right hardware
		// type, wrong virtual type.
		key, errno := token.KeyNew(ctx)
		if errno != api.OK {
			t.Errorf("key: %v", errno)
			return nil
		}
		rets, err := ctx.Call(alloc.Name, alloc.EntryAllocateSealed, quota, api.C(key), api.W(8))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("sealed alloc: %v %v", err, rets)
			return nil
		}
		ownSealed := rets[1]
		buf := api.C(stageBytes(ctx, []byte("forged handle 16")))
		quotaBefore, _ = alloc.Client{}.QuotaRemaining(ctx)
		for _, is := range issuers {
			forgeries := [4]api.Value{buf, api.W(42), ownSealed, live[is.foreign]}
			for i, name := range [4]string{"plain capability", "word", "own-key object", is.foreign + " handle"} {
				got := api.ErrUnwound
				if rets, err := ctx.Call(is.comp, is.entry, is.args(forgeries[i], buf)...); err == nil {
					got = api.ErrnoOf(rets)
				}
				results = append(results, result{is.entry, name, got, is.want[i]})
			}
		}
		quotaAfter, _ = alloc.Client{}.QuotaRemaining(ctx)
		for _, is := range issuers {
			genuine[is.entry] = api.ErrUnwound
			if rets, err := ctx.Call(is.comp, is.entry, is.args(live[is.comp], buf)...); err == nil {
				genuine[is.entry] = api.ErrnoOf(rets)
			}
		}
		return nil
	}, append(append(token.Imports(), alloc.Imports()...), libs.QueueCompImports()...)...)
	r.run(t, 2_000_000_000)
	if len(results) != 4*len(issuers) {
		t.Fatalf("results = %v", results)
	}
	for _, res := range results {
		if res.got != res.want {
			t.Errorf("%s given a %s: %v, want %v", res.entry, res.forgery, res.got, res.want)
		}
	}
	if quotaAfter != quotaBefore {
		t.Errorf("forged handles moved the caller's quota: %d -> %d bytes free", quotaBefore, quotaAfter)
	}
	for _, is := range issuers {
		if e := genuine[is.entry]; e != api.OK {
			t.Errorf("%s refused its own live handle: %v", is.entry, e)
		}
	}
}

// tcpipImports lets the test app drive the TCP/IP compartment directly,
// bypassing the network API.
func tcpipImports() []firmware.Import {
	entries := []string{
		netstack.FnSockUDP, netstack.FnSockTCP, netstack.FnSockSend,
		netstack.FnSockRecv, netstack.FnSockClose,
	}
	out := make([]firmware.Import, 0, len(entries))
	for _, e := range entries {
		out = append(out, firmware.Import{Kind: firmware.ImportCall, Target: netstack.TCPIP, Entry: e})
	}
	return out
}

// TestFirewallBlocksUnallowedEgress: the TCP/IP stack cannot transmit to
// a destination the firewall was never opened for — only the network API
// may reconfigure egress, so driving the stack directly dies at the
// firewall.
func TestFirewallBlocksUnallowedEgress(t *testing.T) {
	strangerIP := netproto.IPv4(203, 0, 113, 9)
	var errno api.Errno
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		rets, err := ctx.Call(netstack.TCPIP, netstack.FnSockTCP,
			api.W(strangerIP), api.W(80), api.W(1_000_000))
		if err != nil {
			t.Errorf("call: %v", err)
			return nil
		}
		errno = api.ErrnoOf(rets)
		return nil
	}, tcpipImports()...)
	r.run(t, 100_000_000)
	if errno != api.ErrNotPermitted {
		t.Fatalf("egress to stranger = %v, want not permitted", errno)
	}
}

// TestSocketOwnership: a compartment cannot operate on a socket id it did
// not create, even with full TCP/IP imports (confused-deputy hardening).
func TestSocketOwnership(t *testing.T) {
	var stolen api.Errno = 99
	var sockID uint32
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		// The app creates a UDP socket through the network API (owner:
		// netapi), then tries to drive it via the TCP/IP compartment
		// directly (owner check: caller is "app", not "netapi").
		quota := ctx.SealedImport("default")
		rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetConnectUDP,
			api.C(quota), api.W(dnsIP), api.W(netproto.PortDNS))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("connect: %v", err)
			return nil
		}
		// Socket ids are assigned sequentially from 1; the stack's own
		// sockets may exist, so scan a few ids.
		buf := ctx.StackAlloc(8)
		for id := uint32(1); id <= 4; id++ {
			rets, err = ctx.Call(netstack.TCPIP, netstack.FnSockSend, api.W(id), api.C(buf))
			if err != nil {
				t.Errorf("direct send: %v", err)
				return nil
			}
			if e := api.ErrnoOf(rets); e != api.ErrNotFound {
				stolen = e
				sockID = id
			}
		}
		return nil
	}, tcpipImports()...)
	r.run(t, 100_000_000)
	if stolen != 99 {
		t.Fatalf("socket %d usable by a non-owner: %v", sockID, stolen)
	}
}

// TestPollSockets: §3.2.4 "All asynchronous APIs on CHERIoT expose a
// futex that can be passed to the multiwaiter: e.g., sockets (enabling
// poll use-cases)". The app multiwaits over two sockets' receive futexes
// and wakes for the one with traffic.
func TestPollSockets(t *testing.T) {
	var wokenIdx uint32 = 99
	var payloadOK bool
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		open := func() (api.Value, api.Value) {
			rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetConnectUDP,
				api.C(quota), api.W(dnsIP), api.W(netproto.PortDNS))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("connect: %v", err)
				return api.Value{}, api.Value{}
			}
			handle := rets[1]
			rets, err = ctx.Call(netstack.NetAPI, netstack.FnNetFutex, handle)
			if err != nil || api.ErrnoOf(rets) != api.OK {
				t.Errorf("futex: %v", err)
				return api.Value{}, api.Value{}
			}
			return handle, rets[1]
		}
		hA, fA := open()
		hB, fB := open()
		_ = hA
		// Send a query on B only; nothing ever arrives on A.
		q := stageBytes(ctx, netproto.EncodeDNSQuery(9, "broker.example"))
		if rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetSend, hB, api.C(q)); err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("send: %v", err)
			return nil
		}
		// Poll both sockets.
		seenA, seenB := ctx.Load32(fA.Cap), ctx.Load32(fB.Cap)
		rets, err := ctx.Call("sched", "multiwait",
			api.W(30_000_000), fA, api.W(seenA), fB, api.W(seenB))
		if err != nil {
			t.Errorf("multiwait: %v", err)
			return nil
		}
		wokenIdx = rets[0].AsWord()
		// The woken socket has the reply ready.
		out := ctx.StackAlloc(64)
		rets, err = ctx.Call(netstack.NetAPI, netstack.FnNetRecv, hB, api.C(out), api.W(1_000_000))
		if err == nil && api.ErrnoOf(rets) == api.OK {
			_, ip, derr := netproto.DecodeDNSReply(
				ctx.LoadBytes(out.WithAddress(out.Base()), rets[1].AsWord()))
			payloadOK = derr == nil && ip == brokerIP
		}
		return nil
	}, sched.Imports()...)
	r.run(t, 200_000_000)
	if wokenIdx != 1 {
		t.Fatalf("multiwait woke index %d, want 1 (socket B)", wokenIdx)
	}
	if !payloadOK {
		t.Fatal("the polled socket did not deliver the reply")
	}
}

// TestServerResetSurfacesAsConnReset: when the remote end aborts the TLS
// session (here: by rejecting a malformed record), the client sees a
// clean connection-reset error, not a fault.
func TestServerResetSurfacesAsConnReset(t *testing.T) {
	var sendAfter api.Errno
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		rets, err := ctx.Call(netstack.TLS, netstack.FnTLSConnect,
			api.C(quota), api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("tls connect: %v %v", err, rets)
			return nil
		}
		handle := rets[1]
		// Push garbage straight down the TCP connection, bypassing the
		// TLS layer: the broker's record MAC check fails and it resets.
		// We reach the inner TCP handle the supported way: by sending a
		// *valid* record first, then desynchronizing the stream with a
		// second identical plaintext (the broker's receive counter has
		// moved, so the record MAC no longer verifies — same effect as
		// tampering on the wire).
		msg := stageBytes(ctx, []byte{1, 2, 3})
		rets, err = ctx.Call(netstack.TLS, netstack.FnTLSSend, handle, api.C(msg))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			t.Errorf("first send: %v", err)
			return nil
		}
		// The broker drops unknown-MQTT-type records by resetting; the
		// bytes {1,2,3} decode to type 1 (connect) with bad lengths,
		// which DecodeMQTT rejects -> RST. Subsequent sends or receives
		// surface as connection reset.
		out := ctx.StackAlloc(64)
		for i := 0; i < 5; i++ {
			rets, err = ctx.Call(netstack.TLS, netstack.FnTLSRecv, handle, api.C(out), api.W(3_000_000))
			if err != nil {
				t.Errorf("recv: %v", err)
				return nil
			}
			sendAfter = api.ErrnoOf(rets)
			if sendAfter == api.ErrConnReset {
				break
			}
		}
		return nil
	})
	r.run(t, 2_000_000_000)
	if sendAfter != api.ErrConnReset {
		t.Fatalf("after server reset = %v, want conn reset", sendAfter)
	}
}

// stageBytes copies bytes onto the stack and returns a bounded view.
func stageBytes(ctx api.Context, b []byte) cap.Capability {
	buf := ctx.StackAlloc(uint32(len(b)))
	ctx.StoreBytes(buf, b)
	view, err := buf.SetBounds(uint32(len(b)))
	if err != nil {
		return buf
	}
	return view
}

// TestSocketExhaustion: the stack refuses to create more sockets than it
// has slots, instead of corrupting state.
func TestSocketExhaustion(t *testing.T) {
	created, refused := 0, 0
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		for i := 0; i < 40; i++ {
			rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetConnectUDP,
				api.C(quota), api.W(dnsIP), api.W(netproto.PortDNS))
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return nil
			}
			switch api.ErrnoOf(rets) {
			case api.OK:
				created++
			case api.ErrNoMemory:
				refused++
			default:
				t.Errorf("connect %d: %v", i, api.ErrnoOf(rets))
				return nil
			}
		}
		return nil
	}, tcpipImports()...)
	r.run(t, 400_000_000)
	if created == 0 || refused == 0 {
		t.Fatalf("created=%d refused=%d; want both (graceful exhaustion)", created, refused)
	}
	if created > 32 {
		t.Fatalf("created %d sockets with only 32 slots", created)
	}
}
