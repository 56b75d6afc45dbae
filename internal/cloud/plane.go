// Package cloud is the sharded cloud control plane for fleet
// simulations: N netsim.Broker shards partitioned by topic, fronted by a
// load balancer that steers each device's connection to the shard owning
// its topics, plus a deterministic scheduler for cloud-initiated events
// (fan-out publishes, per-device commands, shard failovers).
//
// A single broker serializes every device's MQTT dispatch behind one
// host mutex, so the shared side stops scaling exactly where the fleet's
// worker pool starts. Sharding divides it: each shard dispatches only
// its own sessions, under its own lock. Subscriptions are indexed once,
// by the shard that owns the topic (the plane installs the owner
// resolver in every broker), so a publish visits exactly its topic's
// subscribers, wherever they are homed; a delivery into a session homed
// on another shard than the publisher's is a cross-shard forward.
//
// Determinism. Everything the plane does is either (a) a synchronous
// consequence of a device-originated frame, or (b) a cloud-initiated
// event expanded per device onto that device's own cycle-accurate event
// queue (see Schedule). Neither path depends on wall-clock time, map
// iteration order observable by devices, or cross-device progress, so a
// fleet run keeps the lockstep ≡ parallel byte-identical-summary
// equivalence even under broadcast fan-out.
package cloud

import (
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// Config describes a control plane.
type Config struct {
	// Shards is the broker shard count; 0 and 1 both mean a single shard,
	// which owns every topic, so nothing is ever forwarded.
	Shards int
	// Devices is the fleet size, used for device-range topic partitioning
	// and per-device home-shard assignment.
	Devices int
	// BaseIP is shard 0's address; shard k listens on BaseIP+k. With one
	// shard this is the only broker address.
	BaseIP uint32
	// RootSecret and Cert are shared by all shards (one logical cloud
	// identity), so a device's TLS handshake is the same bytes whichever
	// shard terminates it.
	RootSecret []byte
	Cert       []byte
	// DeviceIndexOf maps a device address to its fleet index, -1 if
	// unknown. The load balancer uses it to answer DNS with the device's
	// home shard.
	DeviceIndexOf func(deviceIP uint32) int

	// SessionTTL, in cycles, arms idle-session reaping on every shard.
	SessionTTL uint64

	// DNSName is the broker name devices resolve; the answer is the
	// requesting device's home shard.
	DNSName string
	DNSIP   uint32

	NTPIP             uint32
	NTPBaseUnixMillis uint64
}

// Shard is one broker shard.
type Shard struct {
	Index  int
	IP     uint32
	Host   *netsim.ServerHost
	Broker *netsim.Broker
}

// Plane is a running control plane.
type Plane struct {
	cfg    Config
	Shards []*Shard
	dns    *netsim.ServerHost
	ntp    *netsim.ServerHost
}

// ShardCounters is one shard's traffic summary.
type ShardCounters struct {
	Shard        int `json:"shard"`
	Connects     int `json:"connects"`
	Subscribes   int `json:"subscribes"`
	Publishes    int `json:"publishes"`
	LiveSessions int `json:"live_sessions"`
	Superseded   int `json:"superseded"`
	Reaped       int `json:"reaped"`
	// Forwarded counts cross-shard deliveries made through this shard's
	// subscription index: device publishes to topics this shard owns,
	// delivered into sessions homed on a shard other than the publisher's.
	Forwarded int `json:"forwarded"`
}

// NewPlane builds the shards, the load-balancing DNS front end, and the
// shared NTP host.
func NewPlane(cfg Config) *Plane {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Devices < 1 {
		cfg.Devices = 1
	}
	p := &Plane{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		host, broker := netsim.NewBroker(cfg.BaseIP+uint32(i), cfg.RootSecret, cfg.Cert)
		if cfg.SessionTTL > 0 {
			broker.SetSessionTTL(cfg.SessionTTL)
		}
		broker.SetShard(i)
		broker.SetOwner(p.owner)
		p.Shards = append(p.Shards, &Shard{Index: i, IP: cfg.BaseIP + uint32(i),
			Host: host, Broker: broker})
	}
	p.dns = p.newLBDNS()
	p.ntp = netsim.NewSharedNTPServer(cfg.NTPIP, cfg.NTPBaseUnixMillis)
	return p
}

// Attach registers the plane's hosts — DNS, NTP, and every shard — in
// one device's World. The device reaches whichever shard DNS steers it
// to, but all shards are addressable (cross-shard tests dial directly).
func (p *Plane) Attach(w *netsim.World) {
	w.AddHost(p.cfg.DNSIP, p.dns)
	w.AddHost(p.cfg.NTPIP, p.ntp)
	for _, sh := range p.Shards {
		w.AddHost(sh.IP, sh.Host)
	}
}

// HomeShard returns the shard index owning a device's connection: a
// contiguous range partition, so per-device topics and per-device
// connections agree on the owner.
func (p *Plane) HomeShard(deviceIndex int) int {
	return homeShard(deviceIndex, p.cfg.Devices, len(p.Shards))
}

// HomeIP returns the broker address a device should connect to.
func (p *Plane) HomeIP(deviceIndex int) uint32 {
	return p.Shards[p.HomeShard(deviceIndex)].IP
}

// ShardForTopic returns the shard index owning a topic: per-device
// topics ("fleet/<n>" and anything under "fleet/<n>/") range-partition
// with the device, everything else hashes.
func (p *Plane) ShardForTopic(topic string) int {
	return shardForTopic(topic, p.cfg.Devices, len(p.Shards))
}

// owner is every shard's owner resolver: the broker whose subscription
// index holds the topic's subscribers.
func (p *Plane) owner(topic string) *netsim.Broker {
	return p.Shards[p.ShardForTopic(topic)].Broker
}

// Publish is the cloud-side injection path used by tests: deliver to
// every subscriber of the topic, wherever its session is homed, exactly
// once, leaving every shard's counters alone. Returns the number
// delivered.
func (p *Plane) Publish(topic string, payload []byte) int {
	return p.owner(topic).DeliverToSubscribers(topic, payload)
}

// DeliverToDevice pushes one publish into a single device's session on
// its home shard, if the device is connected and subscribed. This is the
// deterministic fan-out path: the scheduler expands a broadcast into one
// DeliverToDevice per device, each fired from that device's own event
// queue, so no cross-device ordering is observable. A nonzero trace ID
// rides in-band to the device (internal/fleetobs).
func (p *Plane) DeliverToDevice(deviceIndex int, deviceIP uint32, topic string, payload []byte, trace uint64) bool {
	s := p.Shards[p.HomeShard(deviceIndex)].Broker.SessionFor(deviceIP)
	if s == nil {
		return false
	}
	return s.DeliverTraced(topic, payload, trace)
}

// KickDevice resets the device's current session on its home shard (the
// device-visible effect of a shard failover). Safe only from the
// device's own goroutine.
func (p *Plane) KickDevice(deviceIndex int, deviceIP uint32) bool {
	return p.Shards[p.HomeShard(deviceIndex)].Broker.KickIP(deviceIP)
}

// ReapDead runs one deterministic reap scan on every shard at the given
// cycle count; call it at a fleet run barrier, with every device stopped.
func (p *Plane) ReapDead(now uint64) {
	for _, sh := range p.Shards {
		sh.Broker.ReapDead(now)
	}
}

// ShardStats snapshots every shard's counters.
func (p *Plane) ShardStats() []ShardCounters {
	out := make([]ShardCounters, len(p.Shards))
	for i, sh := range p.Shards {
		c, s, pub := sh.Broker.Counts()
		superseded, reaped := sh.Broker.ReapStats()
		out[i] = ShardCounters{
			Shard: i, Connects: c, Subscribes: s, Publishes: pub,
			LiveSessions: sh.Broker.LiveSessions(),
			Superseded:   superseded, Reaped: reaped,
			Forwarded: sh.Broker.Forwarded(),
		}
	}
	return out
}
