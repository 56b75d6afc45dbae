package cloud

import (
	"fmt"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// TestPlaneIndexHoldsExactlyLiveSubscribers is the two-shard version of
// netsim's TestBrokerIndexHoldsExactlyLiveSubscribers. After subscribes,
// a takeover, a client close, a TTL reap and a failover kick, a topic's
// owner shard indexes exactly the live sessions subscribed to it, on
// whichever shard they are homed. The other shard indexes none of them.
// A device publish reaches exactly those sessions minus the publisher,
// and the owner counts a forward for each one homed on another shard
// than the publisher's.
func TestPlaneIndexHoldsExactlyLiveSubscribers(t *testing.T) {
	const devices = 8
	const ttl = 10_000_000
	p := testPlane(2, devices)
	for _, sh := range p.Shards {
		sh.Broker.SetSessionTTL(ttl)
	}
	tA := sharedTopicOwnedBy(0, devices, 2)
	tB := sharedTopicOwnedBy(1, devices, 2)
	topics := []string{tA, tB, BroadcastTopic}
	for i := 0; i < devices; i++ {
		topics = append(topics, fmt.Sprintf("fleet/%d", i))
	}

	type device struct {
		c      *planeClient
		topics map[string]bool
		live   bool
	}
	connect := func(i int, port uint16, subs ...string) *device {
		c := newPlaneClient(t, p, testDeviceIP(i))
		c.port = port
		c.connect(p.HomeIP(i))
		d := &device{c: c, topics: map[string]bool{}, live: true}
		for _, tp := range subs {
			c.subscribe(tp)
			d.topics[tp] = true
		}
		return d
	}
	devs := make([]*device, devices)
	for i := range devs {
		subs := []string{fmt.Sprintf("fleet/%d", i), tA, tB}
		if i%2 == 0 {
			subs = append(subs, BroadcastTopic)
		}
		switch i {
		case 0:
			subs = append(subs, "fleet/6") // owned by shard 1
		case 5:
			subs = append(subs, "fleet/1") // owned by shard 0
		}
		devs[i] = connect(i, 4002, subs...)
	}
	if p.HomeShard(3) != 0 || p.HomeShard(4) != 1 {
		t.Fatal("expected devices 0-3 on shard 0 and 4-7 on shard 1")
	}

	check := func(stage string) {
		t.Helper()
		for _, tp := range topics {
			want := map[*netsim.BrokerSession]bool{}
			model := 0
			for i, d := range devs {
				s := p.Shards[p.HomeShard(i)].Broker.SessionFor(d.c.ip)
				if !d.live {
					if s != nil {
						t.Fatalf("%s: device %d still has a live session", stage, i)
					}
					continue
				}
				if s == nil {
					t.Fatalf("%s: live device %d has no session", stage, i)
				}
				if s.SubscribedTo(tp) {
					want[s] = true
				}
				if d.topics[tp] {
					model++
				}
			}
			if len(want) != model {
				t.Fatalf("%s: %d live sessions subscribed to %q, the test subscribed %d",
					stage, len(want), tp, model)
			}
			owner := p.ShardForTopic(tp)
			for k, sh := range p.Shards {
				got := sh.Broker.Subscribers(tp)
				if k != owner {
					if len(got) != 0 {
						t.Errorf("%s: shard %d indexes %d sessions for %q, owned by shard %d",
							stage, k, len(got), tp, owner)
					}
					continue
				}
				if len(got) != len(want) {
					t.Errorf("%s: index of %q holds %d sessions, want %d", stage, tp, len(got), len(want))
				}
				for _, s := range got {
					if !want[s] {
						t.Errorf("%s: index of %q holds %08x's session, which is not a live subscriber",
							stage, tp, s.RemoteIP())
					}
				}
			}
		}
	}
	check("after subscribes")

	// Takeover on shard 1, into an index on shard 0.
	devs[4] = connect(4, 4003, tA, BroadcastTopic)
	// Close on shard 0.
	devs[1].c.sendTCP(netproto.TCP{SrcPort: devs[1].c.port, DstPort: netproto.PortMQTT,
		Seq: 1, Flags: netproto.TCPFin})
	devs[1].live = false
	// Failover kick on shard 1.
	if !p.KickDevice(6, devs[6].c.ip) {
		t.Fatal("KickDevice found no session for device 6")
	}
	devs[6].live = false
	// TTL reap on shard 0: every other live device is active after
	// 2*ttl, so a scan at 2*ttl reaps device 2 alone.
	for i, d := range devs {
		if !d.live || i == 2 {
			continue
		}
		d.c.core.Tick(2 * ttl)
		if d.c.exch(netproto.MQTTPacket{Type: netproto.MQTTPingReq}) == nil {
			t.Fatalf("device %d: no PINGRESP", i)
		}
	}
	p.ReapDead(2 * ttl)
	devs[2].live = false
	stats := p.ShardStats()
	if stats[0].Reaped != 1 || stats[1].Superseded != 1 {
		t.Fatalf("shard stats %+v: want one reap on shard 0 and one takeover on shard 1", stats)
	}
	check("after teardowns")

	// Device publishes, each to a topic with subscribers on both shards.
	for _, pub := range []struct {
		dev   int
		topic string
	}{{0, tB}, {7, tA}, {3, "fleet/1"}} {
		before := p.ShardStats()
		devs[pub.dev].c.publish(pub.topic, []byte("x"))
		forwards := 0
		for i, d := range devs {
			if !d.live {
				continue
			}
			want := 0
			if d.topics[pub.topic] && i != pub.dev {
				want = 1
				if p.HomeShard(i) != p.HomeShard(pub.dev) {
					forwards++
				}
			}
			if got := d.c.drain(); got[pub.topic] != want {
				t.Errorf("device %d received %d copies of device %d's publish to %q, want %d",
					i, got[pub.topic], pub.dev, pub.topic, want)
			}
		}
		if forwards == 0 {
			t.Fatalf("publish to %q forwards nothing; the test needs a cross-shard subscriber", pub.topic)
		}
		owner := p.ShardForTopic(pub.topic)
		for k, after := range p.ShardStats() {
			want := before[k].Forwarded
			if k == owner {
				want += forwards
			}
			if after.Forwarded != want {
				t.Errorf("publish to %q: shard %d forwarded %d, want %d",
					pub.topic, k, after.Forwarded, want)
			}
		}
	}

	// The cloud-side publish reaches every live subscriber and leaves
	// the shard counters alone.
	before := p.ShardStats()
	want := 0
	for _, d := range devs {
		if d.live && d.topics[BroadcastTopic] {
			want++
		}
	}
	if n := p.Publish(BroadcastTopic, []byte("y")); n != want {
		t.Errorf("Plane.Publish reached %d sessions, want %d", n, want)
	}
	for i, d := range devs {
		if !d.live {
			continue
		}
		want := 0
		if d.topics[BroadcastTopic] {
			want = 1
		}
		if got := d.c.drain(); got[BroadcastTopic] != want {
			t.Errorf("device %d received %d copies of the cloud publish, want %d",
				i, got[BroadcastTopic], want)
		}
	}
	after := p.ShardStats()
	for k := range after {
		if after[k] != before[k] {
			t.Errorf("Plane.Publish moved shard %d's counters: %+v, then %+v", k, before[k], after[k])
		}
	}
}

// TestConcurrentTakeoversKeepIndexExact races takeovers on shard 1,
// each of which edits shard 0's index, against a shard-0 device whose
// publishes iterate that index (run under -race in check.sh). Afterwards
// the owner indexes exactly the live subscribers.
func TestConcurrentTakeoversKeepIndexExact(t *testing.T) {
	const devices, rounds = 4, 20
	p := testPlane(2, devices)
	topic := sharedTopicOwnedBy(0, devices, 2)
	clients := make([]*planeClient, devices)
	for i := range clients {
		clients[i] = newPlaneClient(t, p, testDeviceIP(i))
		clients[i].connect(p.HomeIP(i))
		clients[i].subscribe(topic)
	}
	if p.HomeShard(0) != 0 || p.HomeShard(devices-1) != 1 {
		t.Fatal("expected the device range split across both shards")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			clients[0].publish(topic, []byte{byte(k)})
		}
	}()
	for k := 0; k < rounds; k++ {
		c := newPlaneClient(t, p, testDeviceIP(devices-1))
		c.port = uint16(5000 + k)
		c.connect(p.HomeIP(devices - 1))
		c.subscribe(topic)
	}
	wg.Wait()

	want := map[*netsim.BrokerSession]bool{}
	for i := 0; i < devices; i++ {
		s := p.Shards[p.HomeShard(i)].Broker.SessionFor(testDeviceIP(i))
		if s == nil || !s.SubscribedTo(topic) {
			t.Fatalf("device %d has no live subscribed session", i)
		}
		want[s] = true
	}
	got := p.Shards[0].Broker.Subscribers(topic)
	if len(got) != len(want) {
		t.Errorf("index of %q holds %d sessions, want %d", topic, len(got), len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("index of %q holds a dead session of %08x", topic, s.RemoteIP())
		}
	}
	if stats := p.ShardStats(); stats[1].Superseded != rounds {
		t.Errorf("shard 1 superseded %d sessions, want %d", stats[1].Superseded, rounds)
	}
}
