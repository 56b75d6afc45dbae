package netstack

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// SNTP entry names.
const (
	FnSNTPSync = "sntp_sync"
	FnSNTPNow  = "sntp_now"
)

type sntpState struct {
	serverIP uint32
	hz       uint64
	synced   bool
	// offsetMillis maps cycle time to Unix wall-clock milliseconds.
	offsetMillis uint64
}

// addSNTP registers the SNTP compartment. Table 2: 1.2 KB code, 56 B
// data, with a comparatively large wrapper share (72%) because the
// wrapper encapsulates what would usually be application code.
func addSNTP(img *firmware.Image, serverIP uint32, hz uint64) {
	img.AddCompartment(&firmware.Compartment{
		Name: SNTP, CodeSize: 1200, WrapperCodeSize: 864, DataSize: 56,
		State:     func() interface{} { return &sntpState{serverIP: serverIP, hz: hz} },
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 2048}},
		Imports:   NetImports(),
		Exports: []*firmware.Export{
			{Name: FnSNTPSync, MinStack: 3072, Entry: sntpSync},
			{Name: FnSNTPNow, MinStack: 256, Entry: sntpNow},
		},
	})
}

// SNTPImports returns the imports for the SNTP compartment.
func SNTPImports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: SNTP, Entry: FnSNTPSync},
		{Kind: firmware.ImportCall, Target: SNTP, Entry: FnSNTPNow},
	}
}

// sntpSync() -> errno synchronizes the device clock with the time server.
func sntpSync(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*sntpState)
	myQuota := ctx.SealedImport("default")
	rets, err := ctx.Call(NetAPI, FnNetConnectUDP,
		api.C(myQuota), api.W(st.serverIP), api.W(netproto.PortNTP))
	if err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrConnReset)
	}
	handle := rets[1]
	defer func() {
		_, _ = ctx.Call(NetAPI, FnNetClose, api.C(myQuota), handle)
	}()

	sent := ctx.Now()
	req := stage(ctx, netproto.EncodeNTPRequest(sent))
	if rets, err := ctx.Call(NetAPI, FnNetSend, handle, api.C(req)); err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrConnReset)
	}
	scratch := ctx.StackAlloc(32)
	rets, err = ctx.Call(NetAPI, FnNetRecv, handle, api.C(scratch), api.W(6_600_000))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return api.EV(e)
	}
	got := ctx.LoadBytes(scratch.WithAddress(scratch.Base()), rets[1].AsWord())
	stamp, serverMillis, derr := netproto.DecodeNTPReply(got)
	if derr != nil || stamp != sent {
		return api.EV(api.ErrInvalid)
	}
	// Midpoint correction: the server stamped its reply roughly half a
	// round trip before now.
	rttMillis := (ctx.Now() - sent) * 1000 / st.hz
	nowMillis := serverMillis + rttMillis/2
	elapsedMillis := ctx.Now() * 1000 / st.hz
	st.offsetMillis = nowMillis - elapsedMillis
	st.synced = true
	return api.EV(api.OK)
}

// sntpNow() -> (errno, lo, hi) returns Unix time in milliseconds.
func sntpNow(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*sntpState)
	if !st.synced {
		return api.EV(api.ErrNotFound)
	}
	now := st.offsetMillis + ctx.Now()*1000/st.hz
	return ctx.Ret(api.W(uint32(api.OK)), api.W(uint32(now)), api.W(uint32(now>>32)))
}
