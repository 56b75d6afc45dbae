package netsim_test

import (
	"bytes"
	"testing"

	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// mqttHandshake drives a worldClient through TCP + TLS + MQTT CONNECT and
// returns the TLS session, failing the test on any hiccup (these tests
// run single-goroutine, unlike the concurrent harness).
func mqttHandshake(t *testing.T, c *worldClient, brokerIP uint32, root []byte, tag byte) *netproto.Session {
	t.Helper()
	if err := c.send(brokerIP, netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT,
		Flags: netproto.TCPSyn}); err != nil {
		t.Fatalf("syn: %v", err)
	}
	if c.recv() == nil {
		t.Fatal("no SYN|ACK")
	}
	clientRandom := bytes.Repeat([]byte{tag}, netproto.RandomBytes)
	if err := c.send(brokerIP, netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data:  netproto.EncodeClientHello(clientRandom)}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	serverRandom, _, err := netproto.DecodeServerHello(root, c.recv())
	if err != nil {
		t.Fatalf("server hello: %v", err)
	}
	session := netproto.NewSession(netproto.SessionKey(root, clientRandom, serverRandom))
	if mqttExch(t, c, brokerIP, session,
		netproto.MQTTPacket{Type: netproto.MQTTConnect, Topic: "dev"}) == nil {
		t.Fatal("no CONNACK")
	}
	return session
}

// mqttExch sends one sealed packet and opens the synchronous response
// (nil if the broker sent nothing).
func mqttExch(t *testing.T, c *worldClient, brokerIP uint32, s *netproto.Session,
	pkt netproto.MQTTPacket) []byte {
	t.Helper()
	if err := c.send(brokerIP, netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data:  s.Seal(netproto.EncodeMQTT(pkt))}); err != nil {
		t.Fatalf("send: %v", err)
	}
	data := c.recv()
	if data == nil {
		return nil
	}
	plain, err := s.Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return plain
}

// TestBrokerSupersession checks client takeover: a new MQTT CONNECT from
// the same device address silently drops the older session (whose FIN was
// lost), so broker state cannot grow with reconnect churn.
func TestBrokerSupersession(t *testing.T) {
	brokerIP := netproto.IPv4(10, 0, 8, 1)
	deviceIP := netproto.IPv4(10, 1, 0, 2)
	root := []byte("secret")
	host, broker := netsim.NewBroker(brokerIP, root, []byte("cert"))

	// First connection, then the device "loses" it (no FIN ever arrives).
	c1 := newWorldClient(deviceIP, brokerIP, host)
	mqttHandshake(t, c1, brokerIP, root, 1)
	if broker.LiveSessions() != 1 {
		t.Fatalf("live sessions = %d, want 1", broker.LiveSessions())
	}

	// Same device address reconnects from a fresh port.
	c2 := newWorldClient(deviceIP, brokerIP, host)
	c2.port = 4003
	tls2 := mqttHandshake(t, c2, brokerIP, root, 2)

	if broker.LiveSessions() != 1 {
		t.Errorf("live sessions = %d after takeover, want 1", broker.LiveSessions())
	}
	if broker.SessionCount() != 1 {
		t.Errorf("session count = %d after takeover, want 1 (old session leaked)", broker.SessionCount())
	}
	superseded, reaped := broker.ReapStats()
	if superseded != 1 || reaped != 0 {
		t.Errorf("reap stats = %d superseded, %d reaped; want 1, 0", superseded, reaped)
	}

	// The new session works: subscribe + cloud publish round trip.
	if mqttExch(t, c2, brokerIP, tls2, netproto.MQTTPacket{
		Type: netproto.MQTTSubscribe, Topic: "dev"}) == nil {
		t.Fatal("no SUBACK on the superseding session")
	}
	if n := broker.Publish("dev", []byte("ping")); n != 1 {
		t.Errorf("publish reached %d sessions, want exactly the new one", n)
	}
}

// TestBrokerSessionTTLReap checks the configurable-TTL reaper: sessions
// idle past the TTL are dropped by ReapDead, without sending anything, and
// fresh state survives.
func TestBrokerSessionTTLReap(t *testing.T) {
	brokerIP := netproto.IPv4(10, 0, 8, 1)
	root := []byte("secret")
	host, broker := netsim.NewBroker(brokerIP, root, []byte("cert"))
	const ttl = 1_000_000
	broker.SetSessionTTL(ttl)

	c := newWorldClient(netproto.IPv4(10, 1, 0, 2), brokerIP, host)
	tls := mqttHandshake(t, c, brokerIP, root, 1)
	mqttExch(t, c, brokerIP, tls, netproto.MQTTPacket{
		Type: netproto.MQTTPublish, Topic: "cfg", Payload: []byte("v1")})
	if broker.LiveSessions() != 1 {
		t.Fatalf("pre-reap state: %d sessions, want 1", broker.LiveSessions())
	}
	lastSeen := c.core.Clock.Cycles()

	// A scan inside the TTL reaps nothing.
	broker.ReapDead(lastSeen + ttl/2)
	if broker.LiveSessions() != 1 {
		t.Fatalf("reap inside TTL dropped state: %d sessions", broker.LiveSessions())
	}

	// Past the TTL everything idle goes, silently.
	frames := c.w.FramesToDevice
	broker.ReapDead(lastSeen + ttl + 1)
	if broker.LiveSessions() != 0 {
		t.Errorf("live sessions = %d after TTL reap, want 0", broker.LiveSessions())
	}
	if broker.SessionCount() != 0 {
		t.Errorf("session count = %d after TTL reap, want 0", broker.SessionCount())
	}
	superseded, reaped := broker.ReapStats()
	if reaped != 1 || superseded != 0 {
		t.Errorf("reap stats = %d superseded, %d reaped; want 0, 1", superseded, reaped)
	}
	c.step()
	if c.w.FramesToDevice != frames {
		t.Errorf("reaping sent %d frames to the device; reaping must be silent",
			c.w.FramesToDevice-frames)
	}
}
