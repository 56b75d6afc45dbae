package netstack

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// DNS resolver entry names.
const FnDNSResolve = "dns_resolve"

type dnsState struct {
	serverIP uint32
	nextID   uint16
}

// addDNS registers the resolver compartment. Table 2: 3.6 KB code, 400 B
// data, native (no wrapper).
func addDNS(img *firmware.Image, serverIP uint32) {
	img.AddCompartment(&firmware.Compartment{
		Name: DNS, CodeSize: 3600, DataSize: 400,
		State: func() interface{} { return &dnsState{serverIP: serverIP, nextID: 1} },
		// The resolver allocates its transient socket handles from its own
		// dedicated quota: callers cannot exhaust it through other APIs,
		// and it cannot be tricked into allocating on theirs (§3.2.3).
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 2048}},
		Imports:   NetImports(),
		Exports: []*firmware.Export{
			{Name: FnDNSResolve, MinStack: 3072, Entry: dnsResolve},
		},
	})
}

// DNSImports returns the import for the resolver.
func DNSImports() []firmware.Import {
	return []firmware.Import{{Kind: firmware.ImportCall, Target: DNS, Entry: FnDNSResolve}}
}

// stage copies bytes into the current stack frame and returns a read-only
// view — the standard way to pass transient payloads across compartments
// without exposing anything else (§3.2.5).
func stage(ctx api.Context, b []byte) cap.Capability {
	buf := ctx.StackAlloc(uint32(len(b)))
	ctx.StoreBytes(buf, b)
	ro, ok := libs.ReadOnly(ctx, buf)
	if !ok {
		return buf
	}
	return ro
}

// dnsResolve(nameBuf) -> (errno, ip). The resolver opens a UDP socket to
// its configured server, sends one query, and waits for the answer.
func dnsResolve(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	nameBuf := args[0].Cap
	n := nameBuf.Length()
	if !libs.CheckPointer(ctx, nameBuf, cap.PermLoad, n) || n == 0 || n > 255 {
		return api.EV(api.ErrInvalid)
	}
	name := string(ctx.LoadBytes(nameBuf.WithAddress(nameBuf.Base()), n))
	st := ctx.State().(*dnsState)
	id := st.nextID
	st.nextID++

	myQuota := ctx.SealedImport("default")
	rets, err := ctx.Call(NetAPI, FnNetConnectUDP,
		api.C(myQuota), api.W(st.serverIP), api.W(netproto.PortDNS))
	if err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrConnReset)
	}
	handle := rets[1]
	defer func() {
		_, _ = ctx.Call(NetAPI, FnNetClose, api.C(myQuota), handle)
	}()

	query := stage(ctx, netproto.EncodeDNSQuery(id, name))
	if rets, err := ctx.Call(NetAPI, FnNetSend, handle, api.C(query)); err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrConnReset)
	}
	// Wait up to ~100 ms of simulated time for the reply.
	scratch := ctx.StackAlloc(64)
	rets, err = ctx.Call(NetAPI, FnNetRecv, handle, api.C(scratch), api.W(3_300_000))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return api.EV(e)
	}
	got := ctx.LoadBytes(scratch.WithAddress(scratch.Base()), rets[1].AsWord())
	rid, ip, derr := netproto.DecodeDNSReply(got)
	if derr != nil || rid != id {
		return api.EV(api.ErrInvalid)
	}
	if ip == 0 {
		return api.EV(api.ErrNotFound)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(ip))
}
