// Package netproto defines the wire formats spoken on the simulated
// network: a compact IP-like header, ICMP echo, UDP, a simplified TCP, a
// toy TLS (hash-derived keys, AES-CTR records), DNS and SNTP payloads, and
// MQTT control packets.
//
// Both ends use this package: the RTOS network-stack compartments
// (internal/netstack) and the simulated remote servers (internal/netsim).
// It plays the role of the protocol specifications — sharing the encoding
// code does not share any state between the two sides.
package netproto

import "errors"

// Protocol numbers.
const (
	ProtoICMP = 1
	ProtoUDP  = 2
	ProtoTCP  = 3
)

// HeaderBytes is the size of the IP-like header.
const HeaderBytes = 12

// MaxFrame bounds a frame on the simulated link.
const MaxFrame = 1600

// ErrTruncated reports a frame too short for its advertised layout.
var ErrTruncated = errors.New("netproto: truncated packet")

// Header is the IP-like frame header.
type Header struct {
	Dst   uint32
	Src   uint32
	Proto uint8
	Flags uint8
	Len   uint16 // payload length
}

// EncodeHeader serialises h followed by the payload.
func EncodeHeader(h Header, payload []byte) []byte { return AppendHeader(nil, h, payload) }

// AppendHeader appends h followed by the payload to dst, with the
// header's length field set to the payload's, and returns the extended
// slice.
func AppendHeader(dst []byte, h Header, payload []byte) []byte {
	dst, b := grow(dst, HeaderBytes+len(payload))
	put32(b[0:], h.Dst)
	put32(b[4:], h.Src)
	b[8] = h.Proto
	b[9] = h.Flags
	put16(b[10:], uint16(len(payload)))
	copy(b[HeaderBytes:], payload)
	return dst
}

// grow extends dst by n bytes, reallocating only when its capacity is
// short, and returns the extended slice and its last n bytes.
func grow(dst []byte, n int) (out, tail []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		out = make([]byte, l+n, max(l+n, 2*cap(dst)))
		copy(out, dst)
	} else {
		out = dst[:l+n]
	}
	return out, out[l:]
}

// DecodeHeader parses a frame into its header and payload. The payload is
// sliced per the header's length field; a length larger than the frame is
// the classic "ping of death" shape and is reported as ErrTruncated —
// unless the caller parses carelessly, which is exactly the bug the
// Fig. 7 case study injects.
func DecodeHeader(frame []byte) (Header, []byte, error) {
	if len(frame) < HeaderBytes {
		return Header{}, nil, ErrTruncated
	}
	h := Header{
		Dst:   le32(frame[0:]),
		Src:   le32(frame[4:]),
		Proto: frame[8],
		Flags: frame[9],
		Len:   le16(frame[10:]),
	}
	if int(h.Len) > len(frame)-HeaderBytes {
		return h, nil, ErrTruncated
	}
	return h, frame[HeaderBytes : HeaderBytes+int(h.Len)], nil
}

// ICMP echo types.
const (
	ICMPEchoRequest = 0
	ICMPEchoReply   = 1
)

// EncodeICMP builds an ICMP echo payload.
func EncodeICMP(typ uint8, data []byte) []byte { return AppendICMP(nil, typ, data) }

// AppendICMP appends an ICMP echo payload to dst.
func AppendICMP(dst []byte, typ uint8, data []byte) []byte {
	dst, b := grow(dst, 1+len(data))
	b[0] = typ
	copy(b[1:], data)
	return dst
}

// UDP is a UDP segment.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Data    []byte
}

// EncodeUDP serialises a UDP segment.
func EncodeUDP(u UDP) []byte { return AppendUDP(nil, u) }

// AppendUDP appends a serialised UDP segment to dst.
func AppendUDP(dst []byte, u UDP) []byte {
	dst, b := grow(dst, 4+len(u.Data))
	put16(b[0:], u.SrcPort)
	put16(b[2:], u.DstPort)
	copy(b[4:], u.Data)
	return dst
}

// DecodeUDP parses a UDP segment.
func DecodeUDP(p []byte) (UDP, error) {
	if len(p) < 4 {
		return UDP{}, ErrTruncated
	}
	return UDP{SrcPort: le16(p[0:]), DstPort: le16(p[2:]), Data: p[4:]}, nil
}

// TCP flag bits.
const (
	TCPSyn = 1 << iota
	TCPAck
	TCPFin
	TCPRst
	TCPPsh
)

// TCP is a simplified TCP segment: ports, sequence number, flags, data.
// The simulated link is ordered and has no retransmission machinery;
// both ends advance and carry sequence numbers but do not check them (a
// frame the link drops is simply lost), and RST/FIN teardown works as
// usual.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Flags   uint8
	Data    []byte
}

// EncodeTCP serialises a TCP segment.
func EncodeTCP(t TCP) []byte { return AppendTCP(nil, t) }

// AppendTCP appends a serialised TCP segment to dst.
func AppendTCP(dst []byte, t TCP) []byte {
	dst, b := grow(dst, 9+len(t.Data))
	put16(b[0:], t.SrcPort)
	put16(b[2:], t.DstPort)
	put32(b[4:], t.Seq)
	b[8] = t.Flags
	copy(b[9:], t.Data)
	return dst
}

// DecodeTCP parses a TCP segment.
func DecodeTCP(p []byte) (TCP, error) {
	if len(p) < 9 {
		return TCP{}, ErrTruncated
	}
	return TCP{
		SrcPort: le16(p[0:]), DstPort: le16(p[2:]),
		Seq: le32(p[4:]), Flags: p[8], Data: p[9:],
	}, nil
}

// Well-known ports on the simulated internet.
const (
	PortDNS  = 53
	PortNTP  = 123
	PortMQTT = 8883 // MQTT over (toy) TLS
	PortEcho = 7
)

// IPv4 assembles a dotted-quad address into the uint32 wire form.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func put16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Put32 and Le32 are exported for payload builders elsewhere.
func Put32(b []byte, v uint32) { put32(b, v) }

// Le32 reads a little-endian word.
func Le32(b []byte) uint32 { return le32(b) }
