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
	// World. BrokerIP is broker shard 0; shard k listens on BrokerIP+k,
	// so a 1-shard control plane answers on exactly the legacy address.
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

// Cloud is the shared back-end every simulated device talks to. Since the
// sharded control plane, the normal shape is a cloud.Plane (broker shards
// + load-balancing DNS + shared NTP); the legacy single-broker shape is
// kept behind a package-internal flag so the equivalence test can
// byte-compare a 1-shard plane against the pre-sharding cloud.
type Cloud struct {
	// Plane is the sharded control plane (nil in legacy mode).
	Plane *cloud.Plane
	// Broker is the legacy single broker (nil when Plane is set).
	Broker     *netsim.Broker
	brokerHost *netsim.ServerHost
	dns        *netsim.ServerHost
	ntp        *netsim.ServerHost
}

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

// newCloud builds the shared hosts.
func newCloud(cfg *Config) *Cloud {
	if cfg.legacyCloud {
		host, broker := netsim.NewBroker(BrokerIP, RootSecret, []byte("fleet-ca"))
		if ttl := cfg.sessionTTLCycles(); ttl > 0 {
			broker.SetSessionTTL(ttl)
		}
		return &Cloud{
			Broker:     broker,
			brokerHost: host,
			dns:        netsim.NewDNSServer(DNSIP, map[string]uint32{BrokerName: BrokerIP}),
			// The shared NTP server answers with the *requesting* device's
			// clock, so every device sees time consistent with its own
			// simulation.
			ntp: netsim.NewSharedNTPServer(NTPIP, ntpBaseUnixMillis),
		}
	}
	return &Cloud{Plane: cloud.NewPlane(cloud.Config{
		Shards:            cfg.CloudShards,
		Devices:           cfg.Devices,
		BaseIP:            BrokerIP,
		RootSecret:        RootSecret,
		Cert:              []byte("fleet-ca"),
		DeviceIndexOf:     deviceIndexOf,
		SessionTTL:        cfg.sessionTTLCycles(),
		DNSName:           BrokerName,
		DNSIP:             DNSIP,
		NTPIP:             NTPIP,
		NTPBaseUnixMillis: ntpBaseUnixMillis,
	})}
}

// attach registers the shared hosts (and a private gateway leasing ip) in
// one device's World.
func (c *Cloud) attach(w *netsim.World, ip uint32) {
	w.AddHost(GatewayIP, netsim.NewGateway(GatewayIP, ip))
	if c.Plane != nil {
		c.Plane.Attach(w)
		return
	}
	w.AddHost(DNSIP, c.dns)
	w.AddHost(NTPIP, c.ntp)
	w.AddHost(BrokerIP, c.brokerHost)
}

// brokerIPFor is the broker address a device connects to — its home
// shard, or the single legacy broker.
func (c *Cloud) brokerIPFor(deviceIndex int) uint32 {
	if c.Plane != nil {
		return c.Plane.HomeIP(deviceIndex)
	}
	return BrokerIP
}

// homeShard is the shard a device's connection is homed on (0 in legacy
// single-broker mode).
func (c *Cloud) homeShard(deviceIndex int) int {
	if c.Plane != nil {
		return c.Plane.HomeShard(deviceIndex)
	}
	return 0
}

// shardStats snapshots per-shard counters; the legacy broker reports as
// one shard with no forwarding.
func (c *Cloud) shardStats() []cloud.ShardCounters {
	if c.Plane != nil {
		return c.Plane.ShardStats()
	}
	connects, subscribes, publishes := c.Broker.Counts()
	superseded, reaped := c.Broker.ReapStats()
	return []cloud.ShardCounters{{
		Shard: 0, Connects: connects, Subscribes: subscribes, Publishes: publishes,
		LiveSessions: c.Broker.LiveSessions(),
		Superseded:   superseded, Reaped: reaped,
	}}
}

// reapDead runs the deterministic reap scan of a run barrier (a rollout
// checkpoint or the horizon).
func (c *Cloud) reapDead(now uint64) {
	if c.Plane != nil {
		c.Plane.ReapDead(now)
		return
	}
	c.Broker.ReapDead(now)
}
