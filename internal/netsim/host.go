package netsim

import (
	"sync"

	"github.com/cheriot-go/cheriot/internal/netproto"
)

// UDPHandler serves one UDP port: it returns the reply payload, or nil
// for no reply.
type UDPHandler func(w *World, from netproto.Header, seg netproto.UDP) []byte

// TCPApp is the application side of one accepted TCP connection.
type TCPApp interface {
	// OnData handles one inbound segment payload.
	OnData(p *TCPPeer, data []byte)
	// OnClose runs when the connection tears down.
	OnClose(p *TCPPeer)
}

// TCPAcceptor builds the application for a new inbound connection.
type TCPAcceptor func(p *TCPPeer) TCPApp

// ServerHost is a remote host serving UDP handlers and TCP listeners,
// with an ICMP echo responder built in.
//
// A ServerHost may be shared by many concurrent Worlds (the fleet's
// cloud). mu serializes the whole inbound dispatch — connection map,
// peer state, and application callbacks — so TCPApp implementations
// (e.g. BrokerSession) run single-threaded on their own host.
// Cloud-originated paths (Broker.Publish) take the same lock only for
// the broker's counters, then deliver through the topic owner's index
// and per-session locks; a foreign broker shard forwarding into this
// host's sessions takes no host lock at all.
type ServerHost struct {
	IP uint32

	mu   sync.Mutex
	udp  map[uint16]UDPHandler
	tcp  map[uint16]TCPAcceptor
	conn map[connKey]*TCPPeer

	// PingsSent and PingRepliesSeen count echo traffic for tests; guarded
	// by mu, read when quiescent.
	PingRepliesSeen int
}

// NewServerHost returns an empty server host.
func NewServerHost(ip uint32) *ServerHost {
	return &ServerHost{
		IP:   ip,
		udp:  make(map[uint16]UDPHandler),
		tcp:  make(map[uint16]TCPAcceptor),
		conn: make(map[connKey]*TCPPeer),
	}
}

// HandleUDP registers a UDP port handler.
func (s *ServerHost) HandleUDP(port uint16, h UDPHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.udp[port] = h
}

// ListenTCP registers a TCP listener.
func (s *ServerHost) ListenTCP(port uint16, a TCPAcceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tcp[port] = a
}

// connKey names one TCP connection by its remote address and port and
// its local port.
type connKey struct {
	ip           uint32
	rport, lport uint16
}

// Receive implements Host. Frames from different Worlds arrive on
// different goroutines; the lock confines each dispatch.
func (s *ServerHost) Receive(w *World, h netproto.Header, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch h.Proto {
	case netproto.ProtoICMP:
		if len(payload) >= 1 && payload[0] == netproto.ICMPEchoRequest {
			w.Reply(h, s.IP, netproto.ProtoICMP,
				netproto.EncodeICMP(netproto.ICMPEchoReply, payload[1:]))
		}
		if len(payload) >= 1 && payload[0] == netproto.ICMPEchoReply {
			s.PingRepliesSeen++
		}
		// Ping the device: hosts originate echo requests in tests via
		// World.SendToDevice directly.
	case netproto.ProtoUDP:
		seg, err := netproto.DecodeUDP(payload)
		if err != nil {
			return
		}
		if handler := s.udp[seg.DstPort]; handler != nil {
			if reply := handler(w, h, seg); reply != nil {
				w.Reply(h, s.IP, netproto.ProtoUDP, netproto.EncodeUDP(netproto.UDP{
					SrcPort: seg.DstPort, DstPort: seg.SrcPort, Data: reply,
				}))
			}
		}
	case netproto.ProtoTCP:
		seg, err := netproto.DecodeTCP(payload)
		if err != nil {
			return
		}
		s.receiveTCP(w, h, seg)
	}
}

func (s *ServerHost) receiveTCP(w *World, h netproto.Header, seg netproto.TCP) {
	key := connKey{ip: h.Src, rport: seg.SrcPort, lport: seg.DstPort}
	peer := s.conn[key]
	switch {
	case seg.Flags&netproto.TCPSyn != 0 && peer == nil:
		acceptor := s.tcp[seg.DstPort]
		if acceptor == nil {
			// Port closed: refuse.
			w.Reply(h, s.IP, netproto.ProtoTCP, netproto.EncodeTCP(netproto.TCP{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: netproto.TCPRst,
			}))
			return
		}
		peer = &TCPPeer{
			world: w, host: s, key: key,
			RemoteIP: h.Src, RemotePort: seg.SrcPort, LocalPort: seg.DstPort,
			recvSeq: seg.Seq + 1,
		}
		peer.app = acceptor(peer)
		s.conn[key] = peer
		peer.sendFlags(netproto.TCPSyn | netproto.TCPAck)
	case peer == nil:
		// Segment for an unknown connection: reset.
		w.Reply(h, s.IP, netproto.ProtoTCP, netproto.EncodeTCP(netproto.TCP{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: netproto.TCPRst,
		}))
	case seg.Flags&netproto.TCPRst != 0:
		peer.teardown()
	case seg.Flags&netproto.TCPFin != 0:
		peer.sendFlags(netproto.TCPFin | netproto.TCPAck)
		peer.teardown()
	default:
		if len(seg.Data) > 0 {
			peer.recvSeq = seg.Seq + uint32(len(seg.Data))
			peer.app.OnData(peer, seg.Data)
		}
	}
}

// TCPPeer is the server side of one TCP connection.
//
// mu guards the send sequence and the closed flag, so a session owned by
// one broker shard can be written to from a foreign shard's dispatch (the
// control plane's cross-shard forwarding) concurrently with the home
// host's own replies. mu is a leaf below the session lock; only the
// target World's inbox lock is taken under it.
type TCPPeer struct {
	world *World
	host  *ServerHost
	key   connKey
	app   TCPApp

	RemoteIP   uint32
	RemotePort uint16
	LocalPort  uint16

	mu      sync.Mutex
	sendSeq uint32
	recvSeq uint32
	closed  bool
	// seg is the outbound segment under encoding, reused by every send.
	seg []byte
}

func (p *TCPPeer) sendFlags(flags uint8) {
	p.sendSegment(flags, nil)
}

func (p *TCPPeer) sendSegment(flags uint8, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sendSegmentLocked(flags, data)
}

func (p *TCPPeer) sendSegmentLocked(flags uint8, data []byte) {
	seg := netproto.TCP{
		SrcPort: p.LocalPort, DstPort: p.RemotePort,
		Seq: p.sendSeq, Flags: flags, Data: data,
	}
	p.sendSeq += uint32(len(data))
	if flags&(netproto.TCPSyn|netproto.TCPFin) != 0 {
		p.sendSeq++
	}
	p.seg = netproto.AppendTCP(p.seg[:0], seg)
	p.world.sendHeader(netproto.Header{
		Dst: p.RemoteIP, Src: p.host.IP, Proto: netproto.ProtoTCP,
	}, p.seg)
}

// Send pushes application data to the device.
func (p *TCPPeer) Send(data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.sendSegmentLocked(netproto.TCPPsh|netproto.TCPAck, data)
}

// Close performs an orderly FIN.
func (p *TCPPeer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.sendSegmentLocked(netproto.TCPFin, nil)
	p.mu.Unlock()
	p.finish()
}

// Reset aborts the connection.
func (p *TCPPeer) Reset() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.sendSegmentLocked(netproto.TCPRst, nil)
	p.mu.Unlock()
	p.finish()
}

// markClosed silences the peer without sending anything, reporting
// whether it was previously open. Used when the device side has already
// abandoned the connection (supersession, TTL reaping).
func (p *TCPPeer) markClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.closed = true
	return true
}

func (p *TCPPeer) teardown() {
	if p.markClosed() {
		p.finish()
	}
}

// finish removes the peer from the connection map and notifies the app.
// Deliberately not under p.mu: OnClose implementations take their own
// locks (subscription index, session) that must never nest inside the
// peer lock.
func (p *TCPPeer) finish() {
	delete(p.host.conn, p.key)
	if p.app != nil {
		p.app.OnClose(p)
	}
}
