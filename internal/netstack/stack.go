package netstack

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// Config parameterizes the network stack.
type Config struct {
	// DeviceIP is the device's address. With UseDHCP it is the lease the
	// simulated gateway will hand out; statically it is configured into
	// the stack directly.
	DeviceIP uint32
	// UseDHCP makes the stack come up with no address and obtain its
	// lease through the firewall's bootstrap window (netapi brings the
	// interface up on first use, and again after a micro-reboot).
	UseDHCP bool
	// GatewayIP is the local router (DHCP server) address; informational
	// to the stack, required by the simulated world when UseDHCP is set.
	GatewayIP uint32
	// DNSServer and NTPServer are the resolver's and SNTP's upstreams.
	DNSServer uint32
	NTPServer uint32
	// RootSecret is the pinned trust root for the toy TLS.
	RootSecret []byte
	// DriverPriority is the network driver thread's priority (default 7).
	DriverPriority int
}

// Tracing is a machine environment (api.Frame.Env) that traces MQTT
// messages: sampled publishes carry a trace ID in-band, and the MQTT
// compartment records their hops on Tracer (nil: tracing off).
type Tracing interface {
	Tracer() *fleetobs.Tracer
}

// AddTo registers the whole compartmentalized stack (Fig. 5's networked
// setting) in a firmware image: firewall+driver, TCP/IP (micro-rebootable,
// with its deliberate ping-of-death bug), network API, DNS, SNTP, TLS,
// MQTT, plus the driver thread. The kernel's switcher.Comp counts and
// times the TCP/IP micro-reboots.
func AddTo(img *firmware.Image, cfg Config) {
	if cfg.DriverPriority == 0 {
		cfg.DriverPriority = 7
	}
	addFirewall(img)
	// The TCP/IP micro-reboot's dominant cost is draining connection
	// buffers and re-initializing the ported stack; §5.3.3 reports 0.27 s
	// end to end at 33 MHz, which calibrates the charge below.
	handler := compartment.RebootHandler("default", func(ctx api.Context, _ *hw.Trap) {
		ctx.Work(8_500_000)
	})
	staticIP := cfg.DeviceIP
	if cfg.UseDHCP {
		staticIP = 0 // the lease comes from the network
	}
	addTCPIP(img, staticIP, handler)
	addNetAPI(img)
	addDNS(img, cfg.DNSServer)
	addSNTP(img, cfg.NTPServer, img.Hz)
	addTLS(img, cfg.RootSecret)
	addMQTT(img)

	img.AddThread(&firmware.Thread{
		Name: "netdriver", Compartment: Firewall, Entry: FnFwDriver,
		Priority: cfg.DriverPriority, StackSize: 4096, TrustedStackFrames: 16,
	})
}
