// Package netstack implements the compartmentalized network stack of
// Fig. 5: firewall+driver, TCP/IP, the hardened network API, DNS
// resolver, SNTP, TLS, and MQTT — each its own compartment with hardened
// interfaces, quota delegation for connection state, and micro-reboot
// support. It is the Go stand-in for the ported FreeRTOS TCP/IP stack,
// BearSSL, and coreMQTT with their CHERIoT wrappers (§5.2).
package netstack

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// Compartment names.
const (
	Firewall = "firewall"
	TCPIP    = "tcpip"
	NetAPI   = "netapi"
	DNS      = "dns"
	SNTP     = "sntp"
	TLS      = "tls"
	MQTT     = "mqtt"
)

// Firewall entry names.
const (
	FnFwAllow     = "fw_allow"
	FnFwTx        = "fw_tx"
	FnFwDriver    = "fw_driver_loop"
	FnFwStop      = "fw_stop"
	FnFwBootstrap = "fw_bootstrap"
)

const rxStagingBytes = netproto.MaxFrame

type firewallState struct {
	allowed map[uint32]bool // permitted remote IPs
	staging cap.Capability  // persistent RX DMA buffer
	stop    bool
	// bootstrap opens the firewall for the DHCP window: broadcast egress
	// and any-source ingress, until the stack has a lease.
	bootstrap bool
}

// fwState fetches the compartment state.
func fwState(ctx api.Context) *firewallState { return ctx.State().(*firewallState) }

// addFirewall registers the firewall+driver compartment. Table 2 reports
// it at 6.6 KB code / 176 B data (a native component, no wrapper).
func addFirewall(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name: Firewall, CodeSize: 6600, DataSize: 176,
		State: func() interface{} {
			return &firewallState{allowed: make(map[uint32]bool)}
		},
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(append([]firmware.Import{
			{Kind: firmware.ImportMMIO, Target: firmware.DeviceNet},
			{Kind: firmware.ImportCall, Target: TCPIP, Entry: FnIPRx},
		}, alloc.Imports()...), sched.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnFwAllow, MinStack: 128, Entry: fwAllow},
			{Name: FnFwTx, MinStack: 256, Entry: fwTx},
			{Name: FnFwDriver, MinStack: 1024, Entry: fwDriverLoop},
			{Name: FnFwStop, MinStack: 96, Entry: fwStop},
			{Name: FnFwBootstrap, MinStack: 96, Entry: fwBootstrap},
		},
	})
}

// fwAllow(remoteIP) opens the firewall for a remote address. Only the
// network API may reconfigure the firewall (checked via the trusted
// stack), which keeps the egress policy auditable: any other compartment
// calling it would need the import, and the import would show in the
// report.
func fwAllow(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	if c := ctx.Caller(); c != NetAPI && c != "" {
		return api.EV(api.ErrNotPermitted)
	}
	fwState(ctx).allowed[args[0].AsWord()] = true
	return api.EV(api.OK)
}

// fwTx(frameCap) transmits one frame. The frame capability stays read-only
// on the firewall side; the device DMA-reads it from SRAM.
func fwTx(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	frame := args[0].Cap
	n := frame.Length()
	if !libs.CheckPointer(ctx, frame, cap.PermLoad, n) || n < netproto.HeaderBytes || n > netproto.MaxFrame {
		return api.EV(api.ErrInvalid)
	}
	st := fwState(ctx)
	// Egress filtering: destination must have been allowed. During the
	// DHCP window, broadcast is the one exception.
	dst := ctx.Load32(frame.WithAddress(frame.Base()))
	if !st.allowed[dst] && !(st.bootstrap && dst == netproto.Broadcast) {
		return api.EV(api.ErrNotPermitted)
	}
	mmio := ctx.MMIO(firmware.DeviceNet)
	ctx.Store32(mmio.WithAddress(hw.NetBase+hw.NetTxAddr), frame.Base())
	ctx.Store32(mmio.WithAddress(hw.NetBase+hw.NetTxLen), n)
	return api.EV(api.OK)
}

// fwStop makes the driver loop exit; tests and orderly shutdown use it.
func fwStop(ctx api.Context, args []api.Value) []api.Value {
	fwState(ctx).stop = true
	return api.EV(api.OK)
}

// fwBootstrap(enable) opens or closes the DHCP window. Only the TCP/IP
// compartment may toggle it — and that authority is visible in the audit
// report as the import edge.
func fwBootstrap(ctx api.Context, args []api.Value) []api.Value {
	if ctx.Caller() != TCPIP {
		return api.EV(api.ErrNotPermitted)
	}
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	fwState(ctx).bootstrap = args[0].AsWord() != 0
	return api.EV(api.OK)
}

// fwDriverLoop is the driver thread: it waits on the network interrupt
// futex, drains the adaptor's RX queue, applies ingress filtering, and
// hands frames to the TCP/IP compartment. A TCP/IP micro-reboot surfaces
// here as ErrCompartmentBusy: the driver drops the frame and keeps
// running, which is why the reboot does not take the driver down with it.
func fwDriverLoop(ctx api.Context, args []api.Value) []api.Value {
	st := fwState(ctx)
	// One-time setup: the persistent DMA staging buffer.
	staging, errno := (alloc.Client{}).Malloc(ctx, rxStagingBytes)
	if errno != api.OK {
		return api.EV(errno)
	}
	st.staging = staging
	// The interrupt futex for the NIC line (§3.1.4).
	rets, err := ctx.Call(sched.Name, sched.EntryIRQFutex, api.W(uint32(hw.IRQNet)))
	if err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrInvalid)
	}
	irqWord := rets[1].Cap
	mmio := ctx.MMIO(firmware.DeviceNet)

	for !st.stop {
		seen := ctx.Load32(irqWord)
		for ctx.Load32(mmio.WithAddress(hw.NetBase+hw.NetRxStatus)) > 0 {
			n := ctx.Load32(mmio.WithAddress(hw.NetBase + hw.NetRxLen))
			if n == 0 || n > rxStagingBytes {
				// Pop and drop an impossible frame.
				ctx.Store32(mmio.WithAddress(hw.NetBase+hw.NetRxAddr), staging.Base())
				continue
			}
			ctx.Store32(mmio.WithAddress(hw.NetBase+hw.NetRxAddr), staging.Base())
			// Ingress filtering looks at the fixed source-address offset
			// only — the firewall does not parse the frame. The DHCP
			// window admits unknown sources (the server is not known yet).
			src := ctx.Load32(staging.WithAddress(staging.Base() + 4))
			if !st.allowed[src] && !st.bootstrap {
				continue
			}
			// Hand the exact frame, read-only, to the TCP/IP stack.
			view, ok := libs.Tighten(ctx, staging, staging.Base(), n)
			if !ok {
				continue
			}
			ro, ok := libs.ReadOnly(ctx, view)
			if !ok {
				continue
			}
			// The TCP/IP compartment may fault on it (that is the point
			// of the compartment boundary); the driver survives either
			// way and simply moves on.
			_, _ = ctx.Call(TCPIP, FnIPRx, api.C(ro))
		}
		ctx.Store32(mmio.WithAddress(hw.NetBase+hw.NetIRQAck), 1)
		if st.stop {
			break
		}
		// Sleep until the next interrupt (or a timeout heartbeat so stop
		// requests are honored).
		_, err := ctx.Call(sched.Name, sched.EntryFutexWait,
			api.C(irqWord), api.W(seen), api.W(2_000_000))
		if err != nil {
			return api.EV(api.ErrUnwound)
		}
	}
	return api.EV(api.OK)
}
