package netsim_test

import (
	"bytes"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// capFor builds a test authority over [base, top).
func capFor(base, top uint32) cap.Capability {
	return cap.New(base, top, base, cap.PermData|cap.PermStoreLocal)
}

var (
	deviceIP = netproto.IPv4(10, 0, 0, 2)
	hostIP   = netproto.IPv4(10, 0, 0, 9)
)

// rig builds a core + adaptor + world with one server host.
func rig() (*hw.Core, *hw.NetAdaptor, *netsim.World, *netsim.ServerHost) {
	core := hw.NewCore(0x4000, 0)
	adaptor := hw.NewNetAdaptor(core)
	w := netsim.NewWorld(core, adaptor, deviceIP)
	h := netsim.NewServerHost(hostIP)
	w.AddHost(hostIP, h)
	return core, adaptor, w, h
}

// deviceSend transmits a frame from the device side through the MMIO
// registers, as the driver would.
func deviceSend(t *testing.T, core *hw.Core, frame []byte) {
	t.Helper()
	root := capFor(0, 0x4000)
	if err := core.Mem.StoreBytes(root.WithAddress(0x100), frame); err != nil {
		t.Fatal(err)
	}
	reg := capFor(hw.NetBase, hw.NetBase+hw.WindowSize)
	if err := core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetTxAddr), 0x100); err != nil {
		t.Fatal(err)
	}
	if err := core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetTxLen), uint32(len(frame))); err != nil {
		t.Fatal(err)
	}
}

// deviceRecv pops the head RX frame via the MMIO registers.
func deviceRecv(t *testing.T, core *hw.Core) []byte {
	t.Helper()
	reg := capFor(hw.NetBase, hw.NetBase+hw.WindowSize)
	n, _ := core.Mem.Load32(reg.WithAddress(hw.NetBase + hw.NetRxLen))
	if n == 0 {
		return nil
	}
	if err := core.Mem.Store32(reg.WithAddress(hw.NetBase+hw.NetRxAddr), 0x800); err != nil {
		t.Fatal(err)
	}
	b, err := core.Mem.LoadBytes(capFor(0, 0x4000).WithAddress(0x800), n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPingRoundTrip(t *testing.T) {
	core, _, w, _ := rig()
	ping := netproto.EncodeHeader(netproto.Header{
		Dst: hostIP, Src: deviceIP, Proto: netproto.ProtoICMP,
	}, netproto.EncodeICMP(netproto.ICMPEchoRequest, []byte("abc")))
	deviceSend(t, core, ping)
	// Nothing happens until the link latency elapses, twice (there and
	// back).
	if got := deviceRecv(t, core); got != nil {
		t.Fatal("reply arrived with zero latency")
	}
	core.Tick(2*w.Latency + 1)
	reply := deviceRecv(t, core)
	if reply == nil {
		t.Fatal("no echo reply")
	}
	h, payload, err := netproto.DecodeHeader(reply)
	if err != nil || h.Src != hostIP || h.Proto != netproto.ProtoICMP {
		t.Fatalf("reply header = %+v, %v", h, err)
	}
	if payload[0] != netproto.ICMPEchoReply || !bytes.Equal(payload[1:], []byte("abc")) {
		t.Fatalf("reply payload = %v", payload)
	}
}

func TestUnroutableFrameDropped(t *testing.T) {
	core, _, w, _ := rig()
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: netproto.IPv4(1, 2, 3, 4), Src: deviceIP, Proto: netproto.ProtoICMP,
	}, []byte{0}))
	core.Tick(3 * w.Latency)
	if w.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", w.Dropped)
	}
}

func TestDNSAndNTPServers(t *testing.T) {
	core, _, w, _ := rig()
	dns := netsim.NewDNSServer(netproto.IPv4(10, 0, 0, 53), map[string]uint32{"a.example": 42})
	w.AddHost(netproto.IPv4(10, 0, 0, 53), dns)
	ntp := netsim.NewSharedNTPServer(netproto.IPv4(10, 0, 0, 123), 1000)
	w.AddHost(netproto.IPv4(10, 0, 0, 123), ntp)

	// DNS hit.
	q := netproto.EncodeUDP(netproto.UDP{SrcPort: 5555, DstPort: netproto.PortDNS,
		Data: netproto.EncodeDNSQuery(1, "a.example")})
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: netproto.IPv4(10, 0, 0, 53), Src: deviceIP, Proto: netproto.ProtoUDP}, q))
	core.Tick(2*w.Latency + 1)
	reply := deviceRecv(t, core)
	if reply == nil {
		t.Fatal("no DNS reply")
	}
	_, payload, _ := netproto.DecodeHeader(reply)
	seg, _ := netproto.DecodeUDP(payload)
	if seg.SrcPort != netproto.PortDNS || seg.DstPort != 5555 {
		t.Fatalf("ports swapped wrong: %+v", seg)
	}
	_, ip, err := netproto.DecodeDNSReply(seg.Data)
	if err != nil || ip != 42 {
		t.Fatalf("dns reply = %d, %v", ip, err)
	}

	// NTP reflects sim time.
	core.Tick(33_000_000) // 1 simulated second
	req := netproto.EncodeUDP(netproto.UDP{SrcPort: 6666, DstPort: netproto.PortNTP,
		Data: netproto.EncodeNTPRequest(777)})
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: netproto.IPv4(10, 0, 0, 123), Src: deviceIP, Proto: netproto.ProtoUDP}, req))
	core.Tick(2*w.Latency + 1)
	reply = deviceRecv(t, core)
	if reply == nil {
		t.Fatal("no NTP reply")
	}
	_, payload, _ = netproto.DecodeHeader(reply)
	seg, _ = netproto.DecodeUDP(payload)
	stamp, millis, err := netproto.DecodeNTPReply(seg.Data)
	if err != nil || stamp != 777 {
		t.Fatalf("ntp reply: %v stamp=%d", err, stamp)
	}
	if millis < 2000 { // 1000 base + ≥1000 elapsed
		t.Fatalf("server time = %d ms", millis)
	}
}

func TestTCPRefusedOnClosedPort(t *testing.T) {
	core, _, w, _ := rig()
	syn := netproto.EncodeTCP(netproto.TCP{SrcPort: 4000, DstPort: 9999, Seq: 1, Flags: netproto.TCPSyn})
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: hostIP, Src: deviceIP, Proto: netproto.ProtoTCP}, syn))
	core.Tick(2*w.Latency + 1)
	reply := deviceRecv(t, core)
	if reply == nil {
		t.Fatal("no RST")
	}
	_, payload, _ := netproto.DecodeHeader(reply)
	seg, _ := netproto.DecodeTCP(payload)
	if seg.Flags&netproto.TCPRst == 0 {
		t.Fatalf("flags = %#x, want RST", seg.Flags)
	}
}

// echoApp echoes every TCP payload back.
type echoApp struct{ closed bool }

func (e *echoApp) OnData(p *netsim.TCPPeer, data []byte) { p.Send(data) }
func (e *echoApp) OnClose(p *netsim.TCPPeer)             { e.closed = true }

func TestTCPConnectDataClose(t *testing.T) {
	core, _, w, h := rig()
	app := &echoApp{}
	h.ListenTCP(7777, func(p *netsim.TCPPeer) netsim.TCPApp { return app })

	send := func(seg netproto.TCP) {
		deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
			Dst: hostIP, Src: deviceIP, Proto: netproto.ProtoTCP}, netproto.EncodeTCP(seg)))
		core.Tick(2*w.Latency + 1)
	}
	recv := func() *netproto.TCP {
		b := deviceRecv(t, core)
		if b == nil {
			return nil
		}
		_, payload, _ := netproto.DecodeHeader(b)
		seg, _ := netproto.DecodeTCP(payload)
		return &seg
	}

	send(netproto.TCP{SrcPort: 4001, DstPort: 7777, Seq: 100, Flags: netproto.TCPSyn})
	synack := recv()
	if synack == nil || synack.Flags != netproto.TCPSyn|netproto.TCPAck {
		t.Fatalf("handshake reply = %+v", synack)
	}
	send(netproto.TCP{SrcPort: 4001, DstPort: 7777, Seq: 101,
		Flags: netproto.TCPPsh | netproto.TCPAck, Data: []byte("hello")})
	echo := recv()
	if echo == nil || !bytes.Equal(echo.Data, []byte("hello")) {
		t.Fatalf("echo = %+v", echo)
	}
	send(netproto.TCP{SrcPort: 4001, DstPort: 7777, Seq: 106, Flags: netproto.TCPFin})
	finack := recv()
	if finack == nil || finack.Flags&netproto.TCPFin == 0 {
		t.Fatalf("fin reply = %+v", finack)
	}
	if !app.closed {
		t.Fatal("app did not observe the close")
	}
}

func TestBrokerHandshakeAndPubSub(t *testing.T) {
	core, _, w, _ := rig()
	brokerIP := netproto.IPv4(10, 0, 8, 1)
	root := []byte("secret")
	host, broker := netsim.NewBroker(brokerIP, root, []byte("cert"))
	w.AddHost(brokerIP, host)

	var session *netproto.Session
	clientRandom := bytes.Repeat([]byte{3}, netproto.RandomBytes)
	send := func(data []byte) {
		deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
			Dst: brokerIP, Src: deviceIP, Proto: netproto.ProtoTCP},
			netproto.EncodeTCP(netproto.TCP{SrcPort: 4002, DstPort: netproto.PortMQTT,
				Seq: 1, Flags: netproto.TCPPsh | netproto.TCPAck, Data: data})))
		core.Tick(2*w.Latency + 1)
	}
	recvData := func() []byte {
		b := deviceRecv(t, core)
		if b == nil {
			return nil
		}
		_, payload, _ := netproto.DecodeHeader(b)
		seg, _ := netproto.DecodeTCP(payload)
		return seg.Data
	}

	// SYN.
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: brokerIP, Src: deviceIP, Proto: netproto.ProtoTCP},
		netproto.EncodeTCP(netproto.TCP{SrcPort: 4002, DstPort: netproto.PortMQTT,
			Seq: 0, Flags: netproto.TCPSyn})))
	core.Tick(2*w.Latency + 1)
	if deviceRecv(t, core) == nil {
		t.Fatal("no SYN|ACK")
	}
	// TLS handshake.
	send(netproto.EncodeClientHello(clientRandom))
	sh := recvData()
	serverRandom, cert, err := netproto.DecodeServerHello(root, sh)
	if err != nil || string(cert) != "cert" {
		t.Fatalf("server hello: %v", err)
	}
	session = netproto.NewSession(netproto.SessionKey(root, clientRandom, serverRandom))

	// MQTT connect + subscribe.
	send(session.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{Type: netproto.MQTTConnect, Topic: "c1"})))
	ack, err := session.Open(recvData())
	if err != nil {
		t.Fatal(err)
	}
	if pkt, _ := netproto.DecodeMQTT(ack); pkt.Type != netproto.MQTTConnAck {
		t.Fatalf("connack = %+v", pkt)
	}
	send(session.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{Type: netproto.MQTTSubscribe, Topic: "t"})))
	if _, err := session.Open(recvData()); err != nil {
		t.Fatal(err)
	}
	if broker.LiveSessions() != 1 || broker.Subscribes != 1 {
		t.Fatalf("broker state: %d sessions, %d subs", broker.LiveSessions(), broker.Subscribes)
	}

	// Server push.
	if n := broker.Publish("t", []byte("msg")); n != 1 {
		t.Fatalf("published to %d subscribers", n)
	}
	core.Tick(w.Latency + 1)
	pub, err := session.Open(recvData())
	if err != nil {
		t.Fatal(err)
	}
	if pkt, _ := netproto.DecodeMQTT(pub); pkt.Type != netproto.MQTTPublish || string(pkt.Payload) != "msg" {
		t.Fatalf("publish = %+v", pkt)
	}
}

func TestBrokerRejectsGarbage(t *testing.T) {
	core, _, w, _ := rig()
	brokerIP := netproto.IPv4(10, 0, 8, 1)
	host, broker := netsim.NewBroker(brokerIP, []byte("secret"), []byte("cert"))
	w.AddHost(brokerIP, host)
	// SYN then garbage instead of a ClientHello: the broker resets.
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: brokerIP, Src: deviceIP, Proto: netproto.ProtoTCP},
		netproto.EncodeTCP(netproto.TCP{SrcPort: 4003, DstPort: netproto.PortMQTT, Flags: netproto.TCPSyn})))
	core.Tick(2*w.Latency + 1)
	deviceRecv(t, core) // SYN|ACK
	deviceSend(t, core, netproto.EncodeHeader(netproto.Header{
		Dst: brokerIP, Src: deviceIP, Proto: netproto.ProtoTCP},
		netproto.EncodeTCP(netproto.TCP{SrcPort: 4003, DstPort: netproto.PortMQTT,
			Flags: netproto.TCPPsh, Data: []byte("garbage")})))
	core.Tick(2*w.Latency + 1)
	b := deviceRecv(t, core)
	if b == nil {
		t.Fatal("no reply to garbage")
	}
	_, payload, _ := netproto.DecodeHeader(b)
	seg, _ := netproto.DecodeTCP(payload)
	if seg.Flags&netproto.TCPRst == 0 {
		t.Fatalf("flags = %#x, want RST", seg.Flags)
	}
	if broker.LiveSessions() != 0 {
		t.Fatal("session survived garbage")
	}
}

func TestPingOfDeathFrameShape(t *testing.T) {
	_, _, w, _ := rig()
	pod := w.PingOfDeath(hostIP)
	if _, _, err := netproto.DecodeHeader(pod); err != netproto.ErrTruncated {
		t.Fatalf("careful parser verdict = %v, want truncated", err)
	}
}
