package fleet

import (
	"github.com/cheriot-go/cheriot/internal/cloud"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// Cloud addresses. Device addresses live in 10.4.0.0/16 (see deviceIP),
// disjoint from all of these.
var (
	// GatewayIP is the local router; each device's World gets its own
	// gateway host instance (DHCP state is per-device).
	GatewayIP = netproto.IPv4(10, 0, 0, 1)
	// DNSIP and NTPIP are shared cloud hosts registered in every device's
	// World. BrokerIP is broker shard 0; shard k listens on BrokerIP+k.
	DNSIP    = netproto.IPv4(10, 0, 0, 53)
	NTPIP    = netproto.IPv4(10, 0, 0, 123)
	BrokerIP = netproto.IPv4(10, 0, 8, 1)
)

// BrokerName is the DNS name devices resolve to reach the broker; the
// control plane's load-balancing DNS answers it with the requesting
// device's home shard.
const BrokerName = "broker.fleet"

// RootSecret is the fleet's pinned TLS trust root.
var RootSecret = []byte("fleet-root-secret-2026")

// ntpBaseUnixMillis anchors the simulated wall clock.
const ntpBaseUnixMillis = 1_750_000_000_000

// deviceIndexOf inverts deviceIP: -1 for addresses outside the fleet's
// device pool.
func deviceIndexOf(ip uint32) int {
	if ip>>16 != uint32(10)<<8|4 {
		return -1
	}
	n := int(ip&0xffff) - 2
	if n < 0 {
		return -1
	}
	return n
}

// newCloud builds the shared back-end every simulated device talks to:
// the sharded control plane (broker shards, load-balancing DNS, shared
// NTP).
func newCloud(cfg *Config) *cloud.Plane {
	return cloud.NewPlane(cloud.Config{
		Shards:            cfg.CloudShards,
		Devices:           cfg.Devices,
		BaseIP:            BrokerIP,
		RootSecret:        RootSecret,
		Cert:              []byte("fleet-ca"),
		DeviceIndexOf:     deviceIndexOf,
		SessionTTL:        durationCycles(cfg.SessionTTL),
		DNSName:           BrokerName,
		DNSIP:             DNSIP,
		NTPIP:             NTPIP,
		NTPBaseUnixMillis: ntpBaseUnixMillis,
	})
}

// attachCloud registers the plane's shared hosts and a private gateway
// leasing ip in one device's World.
func attachCloud(w *netsim.World, pl *cloud.Plane, ip uint32) {
	w.AddHost(GatewayIP, netsim.NewGateway(GatewayIP, ip))
	pl.Attach(w)
}
