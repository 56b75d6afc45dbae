package netsim_test

import (
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// indexDevice is one device of the subscription-index tests: its client,
// TLS session, the topics it subscribed to on its current session, and
// whether that session should still be live.
type indexDevice struct {
	c      *worldClient
	tls    *netproto.Session
	topics map[string]bool
	live   bool
}

func (d *indexDevice) exch(t *testing.T, brokerIP uint32, pkt netproto.MQTTPacket) []byte {
	t.Helper()
	return mqttExch(t, d.c, brokerIP, d.tls, pkt)
}

// publish sends one PUBLISH and leaves any reply queued for drain.
func (d *indexDevice) publish(t *testing.T, brokerIP uint32, topic string) {
	t.Helper()
	if err := d.c.send(brokerIP, netproto.TCP{SrcPort: d.c.port, DstPort: netproto.PortMQTT,
		Seq: 1, Flags: netproto.TCPPsh | netproto.TCPAck,
		Data: d.tls.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{
			Type: netproto.MQTTPublish, Topic: topic, Payload: []byte("x")}))}); err != nil {
		t.Fatal(err)
	}
}

// drain steps the device once and counts the PUBLISH packets that had
// been queued for it, per topic.
func (d *indexDevice) drain(t *testing.T) map[string]int {
	t.Helper()
	d.c.step()
	got := make(map[string]int)
	for data := d.c.recv(); data != nil; data = d.c.recv() {
		plain, err := d.tls.Open(data)
		if err != nil {
			t.Fatalf("device %08x: open: %v", d.c.ip, err)
		}
		pkt, err := netproto.DecodeMQTT(plain)
		if err != nil {
			t.Fatalf("device %08x: decode: %v", d.c.ip, err)
		}
		if pkt.Type == netproto.MQTTPublish {
			got[pkt.Topic]++
		}
	}
	return got
}

// TestBrokerIndexHoldsExactlyLiveSubscribers replaces a wall-clock bound
// on the broker's publish cost with the property behind it: on a
// standalone broker with 260 sessions, after subscribes, a client
// takeover, a client close, a TTL reap and a failover kick, each topic's
// index holds exactly the live sessions subscribed to it, and a publish
// reaches exactly those sessions minus the publisher.
func TestBrokerIndexHoldsExactlyLiveSubscribers(t *testing.T) {
	const devices = 260
	const ttl = 10_000_000
	brokerIP := netproto.IPv4(10, 0, 8, 1)
	root := []byte("secret")
	host, broker := netsim.NewBroker(brokerIP, root, []byte("cert"))
	broker.SetSessionTTL(ttl)
	topics := []string{"all", "t/0", "t/1", "t/2"}

	connect := func(ip uint32, port uint16, tag byte, subs ...string) *indexDevice {
		c := newWorldClient(ip, brokerIP, host)
		c.port = port
		d := &indexDevice{c: c, tls: mqttHandshake(t, c, brokerIP, root, tag),
			topics: map[string]bool{}, live: true}
		for _, tp := range subs {
			if d.exch(t, brokerIP, netproto.MQTTPacket{Type: netproto.MQTTSubscribe, Topic: tp}) == nil {
				t.Fatalf("device %08x: no SUBACK for %q", ip, tp)
			}
			d.topics[tp] = true
		}
		return d
	}
	devs := make([]*indexDevice, devices)
	for i := range devs {
		ip := netproto.IPv4(10, 1, byte(i/200), byte(2+i%200))
		devs[i] = connect(ip, 4002, byte(i), "all", fmt.Sprintf("t/%d", i%3))
	}

	check := func(stage string) {
		t.Helper()
		for _, tp := range topics {
			want := map[*netsim.BrokerSession]bool{}
			model := 0
			for i, d := range devs {
				s := broker.SessionFor(d.c.ip)
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
			got := broker.Subscribers(tp)
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
	check("after subscribes")

	// Takeover: device 1 reconnects from a fresh port and subscribes to
	// one topic only; its old session leaves every index it was in.
	old := broker.SessionFor(devs[1].c.ip)
	devs[1] = connect(devs[1].c.ip, 4003, 201, "t/2")
	// Close: device 2 sends FIN.
	if err := devs[2].c.send(brokerIP, netproto.TCP{SrcPort: devs[2].c.port,
		DstPort: netproto.PortMQTT, Seq: 1, Flags: netproto.TCPFin}); err != nil {
		t.Fatal(err)
	}
	devs[2].live = false
	// Failover kick: device 3's session is reset by the broker.
	if !broker.KickIP(devs[3].c.ip) {
		t.Fatal("KickIP found no session for device 3")
	}
	devs[3].live = false
	// TTL reap: every live device but device 4 is active after 2*ttl, so
	// a scan at 2*ttl reaps device 4 alone.
	for i, d := range devs {
		if !d.live || i == 4 {
			continue
		}
		d.c.core.Tick(2 * ttl)
		if d.exch(t, brokerIP, netproto.MQTTPacket{Type: netproto.MQTTPingReq}) == nil {
			t.Fatalf("device %d: no PINGRESP", i)
		}
	}
	broker.ReapDead(2 * ttl)
	devs[4].live = false
	if superseded, reaped := broker.ReapStats(); superseded != 1 || reaped != 1 {
		t.Fatalf("reap stats = %d superseded, %d reaped; want 1, 1", superseded, reaped)
	}
	check("after teardowns")
	for _, tp := range topics {
		for _, s := range broker.Subscribers(tp) {
			if s == old {
				t.Errorf("index of %q still holds the superseded session", tp)
			}
		}
	}

	// A device publish reaches exactly the topic's other live
	// subscribers; a cloud publish reaches all of them.
	pub := devs[5]
	pub.publish(t, brokerIP, "all")
	for i, d := range devs {
		if !d.live {
			continue
		}
		want := 0
		if d.topics["all"] && d != pub {
			want = 1
		}
		if got := d.drain(t); got["all"] != want {
			t.Errorf("device %d received %d copies of a device publish, want %d", i, got["all"], want)
		}
	}
	want := 0
	for _, d := range devs {
		if d.live && d.topics["t/1"] {
			want++
		}
	}
	if n := broker.Publish("t/1", []byte("y")); n != want {
		t.Errorf("cloud publish reached %d sessions, want %d", n, want)
	}
	for i, d := range devs {
		if !d.live {
			continue
		}
		want := 0
		if d.topics["t/1"] {
			want = 1
		}
		if got := d.drain(t); got["t/1"] != want {
			t.Errorf("device %d received %d copies of a cloud publish, want %d", i, got["t/1"], want)
		}
	}
}
