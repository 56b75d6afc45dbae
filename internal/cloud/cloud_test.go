package cloud

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/prng"
)

// --- routing property tests -------------------------------------------------

// TestHomeShardProperties checks the device range partition: every device
// maps to exactly one shard, the mapping is monotone, and every shard gets
// at least one device when devices >= shards.
func TestHomeShardProperties(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, devices := range []int{1, 2, 5, 8, 64, 1000} {
			seen := make(map[int]bool)
			prev := 0
			for i := 0; i < devices; i++ {
				h := homeShard(i, devices, shards)
				if h < 0 || h >= shards {
					t.Fatalf("homeShard(%d, %d, %d) = %d out of range", i, devices, shards, h)
				}
				if h < prev {
					t.Fatalf("homeShard not monotone at device %d (%d/%d shards)", i, devices, shards)
				}
				prev = h
				seen[h] = true
			}
			if devices >= shards && len(seen) != shards {
				t.Errorf("%d devices over %d shards used only %d shards", devices, shards, len(seen))
			}
		}
	}
}

// TestShardForTopicProperties is the satellite property test: every topic
// routes to exactly one shard in range, deterministically; per-device
// topics (and anything nested under them) land on the owning device's
// home shard.
func TestShardForTopicProperties(t *testing.T) {
	r := prng.NewSplitMix(42, 7)
	var topics []string
	for i := 0; i < 200; i++ {
		b := make([]byte, 1+r.Below(24))
		for j := range b {
			b[j] = byte('!' + r.Below(94))
		}
		topics = append(topics, string(b))
	}
	topics = append(topics, "", "fleet/", "fleet/x", "fleet/12x", BroadcastTopic)

	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, devices := range []int{1, 8, 64, 1000} {
			for _, tp := range topics {
				s := shardForTopic(tp, devices, shards)
				if s < 0 || s >= shards {
					t.Fatalf("shardForTopic(%q, %d, %d) = %d out of range", tp, devices, shards, s)
				}
				if s2 := shardForTopic(tp, devices, shards); s2 != s {
					t.Fatalf("shardForTopic(%q) not deterministic: %d then %d", tp, s, s2)
				}
				if shards == 1 && s != 0 {
					t.Fatalf("shardForTopic(%q) = %d with one shard", tp, s)
				}
			}
			for i := 0; i < devices; i += 1 + devices/17 {
				want := homeShard(i, devices, shards)
				base := fmt.Sprintf("fleet/%d", i)
				for _, tp := range []string{base, base + "/cmd", base + "/state/x"} {
					if got := shardForTopic(tp, devices, shards); got != want {
						t.Errorf("topic %q on shard %d, want device %d's home shard %d",
							tp, got, i, want)
					}
				}
			}
		}
	}

	// Indices at or past the fleet size are not device topics: they hash,
	// but still to exactly one in-range shard.
	if s := shardForTopic("fleet/99", 8, 4); s < 0 || s >= 4 {
		t.Errorf("out-of-fleet device topic routed out of range: %d", s)
	}
}

// TestBuildScheduleDeterministic checks the schedule is a pure function
// of its config, and its events are well-formed.
func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := ScheduleConfig{
		Seed: 99, Devices: 16, Shards: 4,
		Horizon: 1_000_000, Every: 100_000, PayloadBytes: 24,
		Commands: true, FailoverAt: 550_000,
	}
	s1 := BuildSchedule(cfg)
	s2 := BuildSchedule(cfg)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same config produced different schedules")
	}
	if len(s1) == 0 {
		t.Fatal("empty schedule")
	}
	fanouts, commands, failovers := 0, 0, 0
	for _, ev := range s1 {
		if ev.At >= cfg.Horizon {
			t.Errorf("event at %d beyond horizon %d", ev.At, cfg.Horizon)
		}
		switch ev.Kind {
		case EventFanout:
			fanouts++
			if ev.Topic != BroadcastTopic || len(ev.Payload) != cfg.PayloadBytes {
				t.Errorf("malformed fan-out: topic %q, %d bytes", ev.Topic, len(ev.Payload))
			}
		case EventCommand:
			commands++
			if ev.Device < 0 || ev.Device >= cfg.Devices {
				t.Errorf("command targets device %d of %d", ev.Device, cfg.Devices)
			}
			if ev.Topic != CommandTopic(ev.Device) {
				t.Errorf("command topic %q for device %d", ev.Topic, ev.Device)
			}
		case EventFailover:
			failovers++
			if ev.Shard < 0 || ev.Shard >= cfg.Shards {
				t.Errorf("failover shard %d of %d", ev.Shard, cfg.Shards)
			}
		}
	}
	wantFanouts := 0
	for at := cfg.Start + cfg.Every; at < cfg.Horizon; at += cfg.Every {
		wantFanouts++
	}
	if fanouts != wantFanouts || commands != fanouts || failovers != 1 {
		t.Errorf("schedule shape: %d fan-outs (want %d), %d commands, %d failovers",
			fanouts, wantFanouts, commands, failovers)
	}

	// A different seed must produce different payload bytes.
	cfg2 := cfg
	cfg2.Seed = 100
	if reflect.DeepEqual(s1, BuildSchedule(cfg2)) {
		t.Error("different seeds produced identical schedules")
	}
}

// --- full-stack cross-shard tests -------------------------------------------

var (
	testRoot = []byte("secret")
	testBase = netproto.IPv4(10, 0, 8, 1)
	testDNS  = netproto.IPv4(10, 0, 0, 53)
	testNTP  = netproto.IPv4(10, 0, 0, 123)
)

func testDeviceIP(i int) uint32 { return netproto.IPv4(10, 4, 0, byte(i+2)) }

func testDeviceIndexOf(ip uint32) int {
	if ip>>16 != uint32(10)<<8|4 {
		return -1
	}
	n := int(ip&0xffff) - 2
	if n < 0 {
		return -1
	}
	return n
}

func testPlane(shards, devices int) *Plane {
	return NewPlane(Config{
		Shards: shards, Devices: devices, BaseIP: testBase,
		RootSecret: testRoot, Cert: []byte("cert"),
		DeviceIndexOf: testDeviceIndexOf,
		DNSName:       "broker.fleet", DNSIP: testDNS,
		NTPIP: testNTP, NTPBaseUnixMillis: 1_750_000_000_000,
	})
}

func capFor(base, top uint32) cap.Capability {
	return cap.New(base, top, base, cap.PermData|cap.PermStoreLocal)
}

// planeClient is a minimal device-side MQTT/TLS client (the same harness
// idiom as netsim's concurrent broker test), driven synchronously from
// the test goroutine.
type planeClient struct {
	t    *testing.T
	core *hw.Core
	w    *netsim.World
	ip   uint32
	port uint16
	tls  *netproto.Session
	dst  uint32
}

func newPlaneClient(t *testing.T, p *Plane, ip uint32) *planeClient {
	core := hw.NewCore(0x4000, 0)
	adaptor := hw.NewNetAdaptor(core)
	w := netsim.NewWorld(core, adaptor, ip)
	w.SetConcurrent(true)
	p.Attach(w)
	return &planeClient{t: t, core: core, w: w, ip: ip, port: 4002}
}

func (c *planeClient) step() {
	c.core.Tick(c.w.Latency + 1)
	c.w.PumpInbox()
	c.core.Tick(c.w.Latency + 1)
}

func (c *planeClient) sendRaw(proto byte, payload []byte) {
	c.t.Helper()
	frame := netproto.EncodeHeader(netproto.Header{
		Dst: c.dst, Src: c.ip, Proto: proto}, payload)
	root := capFor(0, 0x4000)
	if err := c.core.Mem.StoreBytes(root.WithAddress(0x100), frame); err != nil {
		c.t.Fatal(err)
	}
	reg := capFor(hw.NetBase, hw.NetBase+hw.WindowSize)
	if err := c.core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetTxAddr), 0x100); err != nil {
		c.t.Fatal(err)
	}
	if err := c.core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetTxLen), uint32(len(frame))); err != nil {
		c.t.Fatal(err)
	}
	c.step()
}

func (c *planeClient) sendTCP(seg netproto.TCP) {
	c.t.Helper()
	c.sendRaw(netproto.ProtoTCP, netproto.EncodeTCP(seg))
}

// recvRaw pops one inbound frame payload, or nil.
func (c *planeClient) recvRaw() (byte, []byte) {
	reg := capFor(hw.NetBase, hw.NetBase+hw.WindowSize)
	n, _ := c.core.Mem.Load32(reg.WithAddress(hw.NetBase + hw.NetRxLen))
	if n == 0 {
		return 0, nil
	}
	if err := c.core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetRxAddr), 0x800); err != nil {
		return 0, nil
	}
	b, err := c.core.Mem.LoadBytes(capFor(0, 0x4000).WithAddress(0x800), n)
	if err != nil {
		return 0, nil
	}
	h, payload, err := netproto.DecodeHeader(b)
	if err != nil {
		return 0, nil
	}
	return h.Proto, payload
}

func (c *planeClient) recvTCP() []byte {
	proto, payload := c.recvRaw()
	if payload == nil || proto != netproto.ProtoTCP {
		return nil
	}
	seg, err := netproto.DecodeTCP(payload)
	if err != nil {
		return nil
	}
	return seg.Data
}

// connect runs TCP + TLS + MQTT CONNECT against one broker shard.
func (c *planeClient) connect(shardIP uint32) {
	c.t.Helper()
	c.dst = shardIP
	c.sendTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Flags: netproto.TCPSyn})
	if c.recvTCP() == nil {
		c.t.Fatal("no SYN|ACK")
	}
	clientRandom := bytes.Repeat([]byte{byte(c.ip)}, netproto.RandomBytes)
	c.sendTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data:  netproto.EncodeClientHello(clientRandom)})
	serverRandom, _, err := netproto.DecodeServerHello(testRoot, c.recvTCP())
	if err != nil {
		c.t.Fatalf("server hello: %v", err)
	}
	c.tls = netproto.NewSession(netproto.SessionKey(testRoot, clientRandom, serverRandom))
	if c.exch(netproto.MQTTPacket{Type: netproto.MQTTConnect, Topic: "dev"}) == nil {
		c.t.Fatal("no CONNACK")
	}
}

// exch sends one sealed MQTT packet and opens the synchronous response.
func (c *planeClient) exch(pkt netproto.MQTTPacket) []byte {
	c.t.Helper()
	c.sendTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data:  c.tls.Seal(netproto.EncodeMQTT(pkt))})
	data := c.recvTCP()
	if data == nil {
		return nil
	}
	plain, err := c.tls.Open(data)
	if err != nil {
		c.t.Fatalf("open: %v", err)
	}
	return plain
}

func (c *planeClient) subscribe(topic string) {
	c.t.Helper()
	if c.exch(netproto.MQTTPacket{Type: netproto.MQTTSubscribe, Topic: topic}) == nil {
		c.t.Fatalf("no SUBACK for %q", topic)
	}
}

// publish sends one PUBLISH (no response expected).
func (c *planeClient) publish(topic string, payload []byte) {
	c.t.Helper()
	c.sendTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data: c.tls.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{
			Type: netproto.MQTTPublish, Topic: topic, Payload: payload}))})
}

// drain collects every queued inbound PUBLISH, counted per topic.
func (c *planeClient) drain() map[string]int {
	c.t.Helper()
	got := make(map[string]int)
	for tries := 0; tries < 10; tries++ {
		c.step()
		for {
			data := c.recvTCP()
			if data == nil {
				break
			}
			plain, err := c.tls.Open(data)
			if err != nil {
				c.t.Fatalf("drain open: %v", err)
			}
			pkt, err := netproto.DecodeMQTT(plain)
			if err != nil {
				c.t.Fatalf("drain decode: %v", err)
			}
			if pkt.Type == netproto.MQTTPublish {
				got[pkt.Topic]++
			}
		}
	}
	return got
}

// sharedTopicOwnedBy finds a non-device topic hashed to the given shard.
func sharedTopicOwnedBy(shard, devices, shards int) string {
	for i := 0; ; i++ {
		tp := fmt.Sprintf("news/%d", i)
		if shardForTopic(tp, devices, shards) == shard {
			return tp
		}
	}
}

// TestCrossShardForwardingExactlyOnce is the satellite exactly-once
// property, end to end through real frames: two devices homed on
// different shards subscribe to the same shared topics; a publish from
// either device reaches the other exactly once — whether the topic is
// owned by the publisher's shard or by the remote
// shard (forward through the owner) — and never echoes to the publisher.
func TestCrossShardForwardingExactlyOnce(t *testing.T) {
	p := testPlane(2, 2)
	if p.HomeShard(0) == p.HomeShard(1) {
		t.Fatal("test devices must be homed on different shards")
	}
	tA := sharedTopicOwnedBy(0, 2, 2) // owned by device 0's home shard
	tB := sharedTopicOwnedBy(1, 2, 2) // owned by device 1's home shard

	c0 := newPlaneClient(t, p, testDeviceIP(0))
	c1 := newPlaneClient(t, p, testDeviceIP(1))
	c0.connect(p.HomeIP(0))
	c1.connect(p.HomeIP(1))
	for _, tp := range []string{tA, tB} {
		c0.subscribe(tp)
		c1.subscribe(tp)
	}

	// Publisher's shard owns the topic: forward to the remote subscriber.
	c0.publish(tA, []byte("a0"))
	if got := c1.drain(); got[tA] != 1 {
		t.Errorf("c1 received %d copies of %q from c0, want exactly 1", got[tA], tA)
	}
	if got := c0.drain(); got[tA] != 0 {
		t.Errorf("publish of %q echoed %d copies back to the publisher", tA, got[tA])
	}

	// Remote shard owns the topic: forward through the owner's index.
	c0.publish(tB, []byte("b0"))
	if got := c1.drain(); got[tB] != 1 {
		t.Errorf("c1 received %d copies of %q from c0, want exactly 1", got[tB], tB)
	}
	if got := c0.drain(); got[tB] != 0 {
		t.Errorf("publish of %q echoed %d copies back to the publisher", tB, got[tB])
	}

	// And symmetrically from the other side.
	c1.publish(tA, []byte("a1"))
	c1.publish(tB, []byte("b1"))
	if got := c0.drain(); got[tA] != 1 || got[tB] != 1 {
		t.Errorf("c0 received %d/%d copies of %q/%q from c1, want exactly 1 each",
			got[tA], got[tB], tA, tB)
	}
	if got := c1.drain(); got[tA] != 0 || got[tB] != 0 {
		t.Errorf("c1 saw its own publishes echoed: %v", got)
	}

	// Every cross-shard delivery was counted on the owning shard.
	stats := p.ShardStats()
	if stats[0].Forwarded+stats[1].Forwarded != 4 {
		t.Errorf("forwarded counts = %d + %d, want 4 total",
			stats[0].Forwarded, stats[1].Forwarded)
	}
	if stats[0].Connects != 1 || stats[1].Connects != 1 {
		t.Errorf("connects per shard = %d/%d, want 1/1", stats[0].Connects, stats[1].Connects)
	}
}

// TestPlanePublishReachesAllShards checks the cloud-side injection path:
// one Publish reaches every subscriber on every shard exactly once.
func TestPlanePublishReachesAllShards(t *testing.T) {
	const devices = 4
	p := testPlane(2, devices)
	clients := make([]*planeClient, devices)
	for i := range clients {
		clients[i] = newPlaneClient(t, p, testDeviceIP(i))
		clients[i].connect(p.HomeIP(i))
		clients[i].subscribe(BroadcastTopic)
	}
	if n := p.Publish(BroadcastTopic, []byte("hello")); n != devices {
		t.Errorf("Publish reached %d subscribers, want %d", n, devices)
	}
	for i, c := range clients {
		if got := c.drain(); got[BroadcastTopic] != 1 {
			t.Errorf("client %d received %d copies, want exactly 1", i, got[BroadcastTopic])
		}
	}

	// DeliverToDevice hits exactly the target device's session.
	clients[2].subscribe(CommandTopic(2))
	if !p.DeliverToDevice(2, testDeviceIP(2), CommandTopic(2), []byte("cmd"), 0) {
		t.Fatal("DeliverToDevice failed for a connected, subscribed device")
	}
	for i, c := range clients {
		want := 0
		if i == 2 {
			want = 1
		}
		if got := c.drain(); got[CommandTopic(2)] != want {
			t.Errorf("client %d received %d command copies, want %d", i, got[CommandTopic(2)], want)
		}
	}
}

// TestLBDNSAnswersHomeShard checks the load balancer's front door: the
// broker name resolves, for each device, to that device's home shard.
func TestLBDNSAnswersHomeShard(t *testing.T) {
	p := testPlane(4, 8)
	for i := 0; i < 8; i++ {
		c := newPlaneClient(t, p, testDeviceIP(i))
		c.dst = testDNS
		c.sendRaw(netproto.ProtoUDP, netproto.EncodeUDP(netproto.UDP{
			SrcPort: 4001, DstPort: netproto.PortDNS,
			Data: netproto.EncodeDNSQuery(7, "broker.fleet")}))
		proto, payload := c.recvRaw()
		if payload == nil || proto != netproto.ProtoUDP {
			t.Fatalf("device %d: no DNS reply", i)
		}
		seg, err := netproto.DecodeUDP(payload)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		_, ip, err := netproto.DecodeDNSReply(seg.Data)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if want := p.HomeIP(i); ip != want {
			t.Errorf("device %d resolved broker to %08x, want home shard %08x (shard %d)",
				i, ip, want, p.HomeShard(i))
		}
	}
}

// TestOneShardPlaneUsesLegacyPath checks the 1-shard degenerate case: all
// topics route to shard 0, which owns every topic and every session, so
// nothing is ever counted as forwarded.
func TestOneShardPlaneUsesLegacyPath(t *testing.T) {
	p := testPlane(1, 4)
	c0 := newPlaneClient(t, p, testDeviceIP(0))
	c1 := newPlaneClient(t, p, testDeviceIP(1))
	c0.connect(p.HomeIP(0))
	c1.connect(p.HomeIP(1))
	c0.subscribe("shared")
	c1.subscribe("shared")
	c0.publish("shared", []byte("x"))
	if got := c1.drain(); got["shared"] != 1 {
		t.Errorf("c1 received %d copies, want 1", got["shared"])
	}
	stats := p.ShardStats()
	if len(stats) != 1 || stats[0].Forwarded != 0 {
		t.Errorf("one-shard plane forwarded %d deliveries, want 0 (one shard owns every topic)",
			stats[0].Forwarded)
	}
}
