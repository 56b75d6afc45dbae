package netstack

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/telemetry"
	"github.com/cheriot-go/cheriot/internal/token"
)

// Network API entry names — the hardened public face of the stack (the
// "NetAPI" compartment of Fig. 4).
const (
	FnNetworkUp     = "network_up"
	FnNetConnectTCP = "network_socket_connect_tcp"
	FnNetConnectUDP = "network_socket_connect_udp"
	FnNetSend       = "network_socket_send"
	FnNetRecv       = "network_socket_recv"
	FnNetClose      = "network_socket_close"
	FnNetFutex      = "network_socket_futex"
)

// addNetAPI registers the network API compartment. Its state is the
// sealer of its socket handles.
func addNetAPI(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name: NetAPI, CodeSize: 3200, DataSize: 64,
		State: func() interface{} { return new(token.Sealer) },
		Imports: append(append([]firmware.Import{
			{Kind: firmware.ImportCall, Target: Firewall, Entry: FnFwAllow},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnNetUp},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockUDP},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockTCP},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockSend},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockRecv},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockClose},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnSockFutex},
		}, token.Imports()...), alloc.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnNetworkUp, MinStack: 2048, Entry: netUpPassthrough},
			{Name: FnNetConnectTCP, MinStack: 2048, Entry: netConnectTCP},
			{Name: FnNetConnectUDP, MinStack: 2048, Entry: netConnectUDP},
			{Name: FnNetSend, MinStack: 2048, Entry: netSend},
			{Name: FnNetRecv, MinStack: 2048, Entry: netRecv},
			{Name: FnNetClose, MinStack: 1024, Entry: netClose},
			{Name: FnNetFutex, MinStack: 1024, Entry: netFutex},
		},
	})
}

// NetImports returns the imports a compartment needs for the network API.
func NetImports() []firmware.Import {
	entries := []string{
		FnNetworkUp, FnNetConnectTCP, FnNetConnectUDP,
		FnNetSend, FnNetRecv, FnNetClose, FnNetFutex,
	}
	out := make([]firmware.Import, 0, len(entries))
	for _, e := range entries {
		out = append(out, firmware.Import{Kind: firmware.ImportCall, Target: NetAPI, Entry: e})
	}
	return out
}

// socketBufferBytes is the per-connection buffer the network API
// allocates on the *caller's* quota: connection state is paid for by
// whoever opens the connection (§3.2.3), so a greedy caller exhausts only
// itself and well-quota'd services keep connecting.
const socketBufferBytes = 512

// wrapSocket allocates the opaque connection handle: a sealed object on
// the caller's delegated quota holding the TCP/IP socket id and the
// connection buffer, both charged to the caller. The key is minted
// before the buffer is allocated.
func wrapSocket(ctx api.Context, callerQuota cap.Capability, id uint32) ([]api.Value, api.Errno) {
	handles := ctx.State().(*token.Sealer)
	if _, errno := handles.Key(ctx); errno != api.OK {
		return nil, errno
	}
	quota := alloc.Delegated(callerQuota)
	buffer, errno := quota.Malloc(ctx, socketBufferBytes)
	if errno != api.OK {
		return nil, errno
	}
	sobj, payload, errno := handles.New(ctx, callerQuota, 16)
	if errno != api.OK {
		_ = quota.Free(ctx, buffer)
		return nil, errno
	}
	ctx.Store32(payload, id)
	ctx.StoreCap(payload.WithAddress(payload.Base()+8), buffer)
	return ctx.Ret(api.W(uint32(api.OK)), api.C(sobj)), api.OK
}

// unwrapSocket validates an opaque handle and returns the socket id. An
// exported-and-reimported object needs only the unseal check (§3.2.5):
// nothing else about it can have been tampered with.
func unwrapSocket(ctx api.Context, handle cap.Capability) (uint32, api.Errno) {
	payload, errno := ctx.State().(*token.Sealer).Open(ctx, handle)
	if errno != api.OK {
		return 0, api.ErrInvalid
	}
	return ctx.Load32(payload), api.OK
}

// ensureUp brings the interface up if it is not (a no-op with a static
// address or an existing lease; a fresh DHCP exchange after a TCP/IP
// micro-reboot, which resets the lease).
func ensureUp(ctx api.Context) api.Errno {
	rets, err := ctx.Call(TCPIP, FnNetUp, api.W(6_600_000)) // ~200 ms budget
	if err != nil {
		return api.ErrConnReset
	}
	return api.ErrnoOf(rets)
}

// netUpPassthrough(timeout) -> errno is the application-facing bring-up.
func netUpPassthrough(ctx api.Context, args []api.Value) []api.Value {
	timeout := uint32(6_600_000)
	if len(args) >= 1 && args[0].AsWord() != 0 {
		timeout = args[0].AsWord()
	}
	rets, err := ctx.Call(TCPIP, FnNetUp, api.W(timeout))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	return api.EV(api.ErrnoOf(rets))
}

// netConnectTCP(delegatedAllocCap, ip, port, timeout) -> (errno, handle)
func netConnectTCP(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 4 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ip, port, timeout := args[1].AsWord(), args[2].AsWord(), args[3].AsWord()
	if e := ensureUp(ctx); e != api.OK {
		return api.EV(e)
	}
	if rets, err := ctx.Call(Firewall, FnFwAllow, api.W(ip)); err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrNotPermitted)
	}
	rets, err := ctx.Call(TCPIP, FnSockTCP, api.W(ip), api.W(port), api.W(timeout))
	if err != nil {
		return api.EV(api.ErrConnReset) // the stack unwound or is resetting
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return api.EV(e)
	}
	id := rets[1] // wrapSocket's calls reuse the return registers
	out, errno := wrapSocket(ctx, args[0].Cap, id.AsWord())
	if errno != api.OK {
		// Roll back the socket we cannot hand out.
		_, _ = ctx.Call(TCPIP, FnSockClose, id)
		return api.EV(errno)
	}
	return out
}

// netConnectUDP(delegatedAllocCap, ip, port) -> (errno, handle)
func netConnectUDP(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ip, port := args[1].AsWord(), args[2].AsWord()
	if e := ensureUp(ctx); e != api.OK {
		return api.EV(e)
	}
	if rets, err := ctx.Call(Firewall, FnFwAllow, api.W(ip)); err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrNotPermitted)
	}
	rets, err := ctx.Call(TCPIP, FnSockUDP, api.W(ip), api.W(port))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return api.EV(e)
	}
	id := rets[1]
	out, errno := wrapSocket(ctx, args[0].Cap, id.AsWord())
	if errno != api.OK {
		_, _ = ctx.Call(TCPIP, FnSockClose, id)
		return api.EV(errno)
	}
	return out
}

// netSend(handle, bufCap) -> errno
func netSend(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	id, errno := unwrapSocket(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	ctx.Emit(telemetry.Event{Kind: telemetry.KindSend,
		From: ctx.Caller(), To: NetAPI, Arg: uint64(args[1].Cap.Length())})
	rets, err := ctx.Call(TCPIP, FnSockSend, api.W(id), args[1])
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e == api.ErrNotFound {
		return api.EV(api.ErrConnReset) // the stack rebooted under us
	} else if e != api.OK {
		return api.EV(e)
	}
	return api.EV(api.OK)
}

// netRecv(handle, bufCap, timeout) -> (errno, n, srcIP)
func netRecv(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	id, errno := unwrapSocket(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	ctx.Emit(telemetry.Event{Kind: telemetry.KindRecv,
		From: ctx.Caller(), To: NetAPI, Arg: uint64(args[1].Cap.Length())})
	rets, err := ctx.Call(TCPIP, FnSockRecv, api.W(id), args[1], args[2])
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e == api.ErrNotFound {
		return api.EV(api.ErrConnReset)
	} else if e != api.OK {
		return api.EV(e)
	}
	return rets
}

// netClose(delegatedAllocCap, handle) -> errno. The allocation capability
// used at connect time is needed again to release the handle's memory
// (the handle itself and the connection buffer it carries).
func netClose(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	id, errno := unwrapSocket(ctx, args[1].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	_, _ = ctx.Call(TCPIP, FnSockClose, api.W(id))
	handles := ctx.State().(*token.Sealer)
	if payload, errno := handles.Open(ctx, args[1].Cap); errno == api.OK {
		if buffer := ctx.LoadCap(payload.WithAddress(payload.Base() + 8)); buffer.Valid() {
			_ = alloc.Delegated(args[0].Cap).Free(ctx, buffer)
		}
	}
	return api.EV(handles.Free(ctx, args[0].Cap, args[1].Cap))
}

// netFutex(handle) -> (errno, roCap)
func netFutex(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	id, errno := unwrapSocket(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	rets, err := ctx.Call(TCPIP, FnSockFutex, api.W(id))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	return rets
}
