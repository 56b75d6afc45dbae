package netsim

import (
	"sync"

	"github.com/cheriot-go/cheriot/internal/netproto"
)

// Broker is an MQTT broker behind the toy TLS, the stand-in for the
// private IoT cloud back-end of §5.3.3. Tests and the case study push
// notifications to subscribers with Publish.
//
// Locking. Inbound dispatch (OnData, OnClose) runs under the owning
// ServerHost's mutex, which guards the session map and all counters.
// Each session additionally carries its own small mutex protecting the
// TLS record state and topic set, so a broker that does not host a
// session (another shard of the sharded cloud in internal/cloud) can
// deliver a sealed record into it without taking this host's dispatch
// lock.
//
// Subscriptions. Each topic's subscribers live in exactly one index, a
// topic → session-set map in the broker that owns the topic: a
// standalone broker owns every topic, and a control plane installs an
// owner resolver with SetOwner. SUBSCRIBE adds the session to its
// owner's index and every teardown (close, takeover, TTL reap, failover
// kick) removes it, so a publish visits exactly its topic's
// subscribers. The index has its own mutex, and the lock order is
// host.mu → index → session → TCP peer → World inbox: a device publish
// runs under its home host's mu and iterates the owner's set under the
// owner's index lock, delivering through each session's lock.
//
// State hygiene. A broker shared by thousands of reconnecting devices
// must not grow without bound: a session whose FIN or RST was lost to
// link faults would otherwise linger forever. Two mechanisms bound it:
//
//   - supersession: an MQTT CONNECT from a device IP silently drops any
//     older session from the same IP (the device has abandoned it; real
//     brokers call this client takeover). Always on, and deterministic
//     because it is driven by the device's own connect.
//   - TTL reaping: with SetSessionTTL, each ReapDead scan drops sessions
//     idle longer than the TTL. Scans run only at quiescence (the fleet runs one at every run
//     barrier, with every device stopped), against the barrier's cycle,
//     so which sessions go is a pure function of the run. Reaping never
//     sends anything to a device.
type Broker struct {
	host       *ServerHost
	RootSecret []byte
	Cert       []byte
	// serverRandom is fixed per broker for determinism; real randomness
	// adds nothing under the simulation's threat model.
	serverRandom []byte

	sessions map[*TCPPeer]*BrokerSession
	// byIP tracks the newest connected session per device address, for
	// supersession and for the control plane's per-device delivery.
	byIP map[uint32]*BrokerSession

	// owner resolves the broker whose index holds a topic's subscribers;
	// nil means this broker owns every topic.
	owner func(topic string) *Broker

	// subMu guards subs and forwarded: the subscription index of the
	// topics this broker owns, wherever each subscriber is homed, and the
	// count of device-publish deliveries it made into sessions homed on a
	// broker other than the publisher's.
	subMu     sync.Mutex
	subs      map[string]map[*BrokerSession]struct{}
	forwarded int

	// shard is this broker's control-plane shard index (0 standalone),
	// stamped into observability spans.
	shard int

	// sessionTTL > 0 arms idle-session reaping by ReapDead.
	sessionTTL uint64

	// Counters for tests; guarded by host.mu (prefer Counts when the
	// fleet is still running).
	Connects   int
	Subscribes int
	Publishes  int
	Superseded int
	Reaped     int
}

// BrokerSession is the broker side of one device connection.
type BrokerSession struct {
	broker *Broker
	peer   *TCPPeer

	// mu guards tls, topics, lastSeen and enc, so a publish on another
	// broker can deliver into this session concurrently with (but
	// serialized against) the home host's dispatch. Only the home
	// dispatch writes topics, holding host.mu as well, so it may read
	// topics under host.mu alone.
	mu sync.Mutex
	// tls is nil until the handshake completes. The home dispatch opens
	// the device's records into its open buffer and reads the plaintext
	// after releasing mu; deliveries seal into its seal buffer.
	tls      *netproto.Session
	topics   map[string]bool
	lastSeen uint64
	// enc is the outbound MQTT packet under encoding.
	enc []byte
	// topic is the last topic the home dispatch decoded, which the next
	// packet on the same topic reuses.
	topic string
}

// NewBroker builds a broker host listening on the MQTT-over-TLS port.
func NewBroker(ip uint32, rootSecret []byte, cert []byte) (*ServerHost, *Broker) {
	host := NewServerHost(ip)
	b := &Broker{
		host:         host,
		RootSecret:   rootSecret,
		Cert:         cert,
		serverRandom: []byte("broker-hello-rnd"),
		sessions:     make(map[*TCPPeer]*BrokerSession),
		byIP:         make(map[uint32]*BrokerSession),
		subs:         make(map[string]map[*BrokerSession]struct{}),
	}
	host.ListenTCP(netproto.PortMQTT, func(p *TCPPeer) TCPApp {
		s := &BrokerSession{broker: b, peer: p, topics: make(map[string]bool)}
		b.sessions[p] = s
		return s
	})
	return host, b
}

// SetOwner installs a control plane's owner resolver: owner(topic) is
// the broker whose index holds the topic's subscribers. It must be a pure
// function of the topic. Set it before any traffic.
func (b *Broker) SetOwner(owner func(topic string) *Broker) { b.owner = owner }

// ownerOf returns the broker that indexes the topic's subscribers.
func (b *Broker) ownerOf(topic string) *Broker {
	if b.owner == nil {
		return b
	}
	return b.owner(topic)
}

// SetShard labels the broker with its control-plane shard index for
// observability spans. Set it before any traffic.
func (b *Broker) SetShard(i int) { b.shard = i }

// Shard returns the broker's control-plane shard index.
func (b *Broker) Shard() int { return b.shard }

// SetSessionTTL arms idle-session reaping: each ReapDead scan drops
// sessions idle longer than ttlCycles, comparing
// their last-activity stamps with the scan's cycle. Call ReapDead only
// at quiescence, with no device running; a TTL below a device's longest
// legitimate idle gap reaps its live session.
func (b *Broker) SetSessionTTL(ttlCycles uint64) { b.sessionTTL = ttlCycles }

// OnData implements TCPApp: handshake first, then MQTT-in-TLS records.
func (s *BrokerSession) OnData(p *TCPPeer, data []byte) {
	b := s.broker
	now := p.world.Now()
	s.mu.Lock()
	s.lastSeen = now
	if s.tls == nil {
		clientRandom, err := netproto.DecodeClientHello(data)
		if err != nil {
			s.mu.Unlock()
			p.Reset()
			return
		}
		key := netproto.SessionKey(b.RootSecret, clientRandom, b.serverRandom)
		s.tls = netproto.NewSession(key)
		hello := netproto.EncodeServerHello(b.RootSecret, b.serverRandom, b.Cert)
		s.mu.Unlock()
		p.Send(hello)
		return
	}
	plain, err := s.tls.OpenOwned(data)
	if err != nil {
		s.mu.Unlock()
		p.Reset()
		return
	}
	s.mu.Unlock()
	pkt, err := netproto.DecodeMQTTTopic(plain, s.topic)
	if err != nil {
		p.Reset()
		return
	}
	s.topic = pkt.Topic

	switch pkt.Type {
	case netproto.MQTTConnect:
		b.Connects++
		b.adopt(s)
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTConnAck})
	case netproto.MQTTSubscribe:
		b.Subscribes++
		s.mu.Lock()
		s.topics[pkt.Topic] = true
		s.mu.Unlock()
		b.ownerOf(pkt.Topic).index(pkt.Topic, s)
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTSubAck, Topic: pkt.Topic})
	case netproto.MQTTPingReq:
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTPingResp})
	case netproto.MQTTPublish:
		// Device-originated publish: deliver to the topic's other
		// subscribers. The ingress span is recorded first, through the
		// publisher's own World (we are running on the publisher's
		// goroutine), so tracing stays single-writer and deterministic.
		b.Publishes++
		if pkt.TraceID != 0 {
			if o := p.world.Obs(); o != nil {
				o.MQTTIngress(pkt.TraceID, b.shard, now)
			}
		}
		b.ownerOf(pkt.Topic).deliver(pkt, s)
	}
}

// OnClose implements TCPApp.
func (s *BrokerSession) OnClose(p *TCPPeer) {
	b := s.broker
	delete(b.sessions, p)
	if b.byIP[p.RemoteIP] == s {
		delete(b.byIP, p.RemoteIP)
	}
	b.unindex(s)
}

// adopt records s as the device's current session and silently drops any
// older sessions from the same address (client takeover): the device has
// abandoned them — its FIN may have been lost to link faults — and will
// never speak on them again. Runs under host.mu.
func (b *Broker) adopt(s *BrokerSession) {
	ip := s.peer.RemoteIP
	for peer, old := range b.sessions {
		if old != s && peer.RemoteIP == ip {
			b.dropSession(old, &b.Superseded)
		}
	}
	b.byIP[ip] = s
}

// dropSession removes a dead session without sending anything to the
// device (the connection is already abandoned on the device side, so an
// RST would perturb the simulation). Runs under host.mu.
func (b *Broker) dropSession(s *BrokerSession, counter *int) {
	delete(b.sessions, s.peer)
	delete(b.host.conn, s.peer.key)
	s.peer.markClosed()
	if b.byIP[s.peer.RemoteIP] == s {
		delete(b.byIP, s.peer.RemoteIP)
	}
	*counter++
	b.unindex(s)
}

// index adds s to the subscribers of a topic b owns.
func (b *Broker) index(topic string, s *BrokerSession) {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	set := b.subs[topic]
	if set == nil {
		set = make(map[*BrokerSession]struct{})
		b.subs[topic] = set
	}
	set[s] = struct{}{}
}

// unindex removes a torn-down session from the index of every topic it
// subscribed to. Runs under s's home host.mu, which orders it after
// every write to s.topics; it takes no session lock, so it can take
// each owner's index lock without inverting the lock order.
func (b *Broker) unindex(s *BrokerSession) {
	for topic := range s.topics {
		owner := b.ownerOf(topic)
		owner.subMu.Lock()
		if set := owner.subs[topic]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(owner.subs, topic)
			}
		}
		owner.subMu.Unlock()
	}
}

// ReapDead runs one reap scan at the given cycle count: sessions idle
// longer than the TTL as of now are dropped. Run
// it only at a fleet run barrier (a rollout checkpoint or the horizon),
// with every device stopped, which makes the result a pure function of
// the run. A no-op unless a session TTL is armed.
func (b *Broker) ReapDead(now uint64) {
	if b.sessionTTL == 0 {
		return
	}
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	for _, s := range b.sessions {
		s.mu.Lock()
		last := s.lastSeen
		s.mu.Unlock()
		if now > last && now-last > b.sessionTTL {
			b.dropSession(s, &b.Reaped)
		}
	}
}

// KickIP resets the device's current session — the broker side of a
// shard failover: the connection dies with an RST and the device must
// reconnect. Safe only from the device's own goroutine (the RST is
// delivered through the device's World).
func (b *Broker) KickIP(ip uint32) bool {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	s := b.byIP[ip]
	if s == nil {
		return false
	}
	s.peer.Reset()
	return true
}

// SessionFor returns the device's current connected session, nil if the
// device has no live post-handshake session on this broker.
func (b *Broker) SessionFor(ip uint32) *BrokerSession {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	s := b.byIP[ip]
	if s == nil || !s.Connected() {
		return nil
	}
	return s
}

// reply seals and sends one packet on the session, atomically with
// respect to concurrent deliveries (record order must match seal order
// or the device-side MAC check fails).
func (s *BrokerSession) reply(pkt netproto.MQTTPacket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tls == nil {
		return
	}
	s.send(pkt)
}

// send seals and sends one packet on the connected session; s.mu is
// held.
func (s *BrokerSession) send(pkt netproto.MQTTPacket) {
	s.enc = netproto.AppendMQTT(s.enc[:0], pkt)
	s.peer.Send(s.tls.SealOwned(s.enc))
}

// DeliverTraced pushes one publish into the session if it is connected
// and subscribed to the topic, returning whether it was sent. A nonzero
// trace ID rides in-band to the subscriber; zero encodes the untraced
// bytes. Safe from any goroutine.
func (s *BrokerSession) DeliverTraced(topic string, payload []byte, trace uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tls == nil || !s.topics[topic] {
		return false
	}
	s.send(netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: topic, Payload: payload, TraceID: trace})
	return true
}

// RemoteIP is the device address of the session's connection.
func (s *BrokerSession) RemoteIP() uint32 { return s.peer.RemoteIP }

// Connected reports whether the TLS handshake has completed.
func (s *BrokerSession) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tls != nil
}

// SubscribedTo reports whether the session subscribed to the topic.
func (s *BrokerSession) SubscribedTo(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topics[topic]
}

// deliver pushes one publish into every subscriber of a topic b owns,
// except the publisher from (nil for a cloud-side publish), and returns
// how many were sent. For a device publish, each delivery into a session
// homed on a broker other than from's counts as forwarded here, at the
// owner, and deliver and forward spans go through the publisher's World:
// this runs on the publisher's goroutine, under its home host.mu. The set
// is visited in map order, which reaches no output: each delivery lands
// in a different device's inbox, and fleetobs sorts spans.
func (b *Broker) deliver(pkt netproto.MQTTPacket, from *BrokerSession) int {
	var obs Observer
	var now uint64
	if from != nil && pkt.TraceID != 0 {
		obs, now = from.peer.world.Obs(), from.peer.world.Now()
	}
	b.subMu.Lock()
	defer b.subMu.Unlock()
	n := 0
	for s := range b.subs[pkt.Topic] {
		if s == from || !s.DeliverTraced(pkt.Topic, pkt.Payload, pkt.TraceID) {
			continue
		}
		n++
		home := s.broker.shard
		if obs != nil {
			obs.MQTTDeliver(pkt.TraceID, home, s.RemoteIP(), now)
		}
		if from != nil && s.broker != from.broker {
			b.forwarded++
			if obs != nil {
				obs.MQTTForward(pkt.TraceID, from.broker.shard, home, now)
			}
		}
	}
	return n
}

// Publish pushes a notification to every live subscriber of the topic —
// the cloud side sending the device an event. Safe to call from any
// goroutine; delivery to concurrent Worlds lands in their inboxes.
func (b *Broker) Publish(topic string, payload []byte) int {
	b.host.mu.Lock()
	b.Publishes++
	b.host.mu.Unlock()
	return b.DeliverToSubscribers(topic, payload)
}

// DeliverToSubscribers is Publish without the counter: it only delivers to the topic's subscribers, through its
// owner's index, and returns how many were sent.
func (b *Broker) DeliverToSubscribers(topic string, payload []byte) int {
	return b.ownerOf(topic).deliver(netproto.MQTTPacket{
		Type: netproto.MQTTPublish, Topic: topic, Payload: payload}, nil)
}

// Subscribers lists, in no particular order, the sessions this broker's
// index holds for a topic; it is empty unless the broker owns the topic.
func (b *Broker) Subscribers(topic string) []*BrokerSession {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	out := make([]*BrokerSession, 0, len(b.subs[topic]))
	for s := range b.subs[topic] {
		out = append(out, s)
	}
	return out
}

// Forwarded reports how many deliveries of device publishes this broker,
// as a topic owner, made into sessions homed on another broker.
func (b *Broker) Forwarded() int {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	return b.forwarded
}

// LiveSessions reports connected (post-handshake) sessions.
func (b *Broker) LiveSessions() int {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	n := 0
	for _, s := range b.sessions {
		if s.Connected() {
			n++
		}
	}
	return n
}

// SessionCount reports all broker sessions, including ones mid-handshake.
func (b *Broker) SessionCount() int {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return len(b.sessions)
}

// Counts returns a consistent snapshot of the broker counters, safe to
// call while concurrent Worlds are still driving traffic.
func (b *Broker) Counts() (connects, subscribes, publishes int) {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return b.Connects, b.Subscribes, b.Publishes
}

// ReapStats reports how many sessions were dropped by supersession and
// by TTL reaping.
func (b *Broker) ReapStats() (superseded, reaped int) {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return b.Superseded, b.Reaped
}
