package netproto

import "errors"

// ErrBadPacket reports a malformed application payload.
var ErrBadPacket = errors.New("netproto: malformed application packet")

// --- DNS ---

// EncodeDNSQuery builds a query for a host name.
func EncodeDNSQuery(id uint16, name string) []byte {
	b := make([]byte, 3+len(name))
	put16(b[0:], id)
	b[2] = byte(len(name))
	copy(b[3:], name)
	return b
}

// DecodeDNSQuery parses a query.
func DecodeDNSQuery(p []byte) (id uint16, name string, err error) {
	if len(p) < 3 || int(p[2]) > len(p)-3 {
		return 0, "", ErrBadPacket
	}
	return le16(p[0:]), string(p[3 : 3+int(p[2])]), nil
}

// EncodeDNSReply builds a reply (ip == 0 means NXDOMAIN).
func EncodeDNSReply(id uint16, ip uint32) []byte {
	b := make([]byte, 6)
	put16(b[0:], id)
	put32(b[2:], ip)
	return b
}

// DecodeDNSReply parses a reply.
func DecodeDNSReply(p []byte) (id uint16, ip uint32, err error) {
	if len(p) < 6 {
		return 0, 0, ErrBadPacket
	}
	return le16(p[0:]), le32(p[2:]), nil
}

// --- SNTP ---

// EncodeNTPRequest builds a time request carrying the client's transmit
// timestamp (cycles, for round-trip estimation).
func EncodeNTPRequest(clientCycles uint64) []byte {
	b := make([]byte, 8)
	put32(b[0:], uint32(clientCycles))
	put32(b[4:], uint32(clientCycles>>32))
	return b
}

// DecodeNTPRequest parses a time request.
func DecodeNTPRequest(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, ErrBadPacket
	}
	return uint64(le32(p[0:])) | uint64(le32(p[4:]))<<32, nil
}

// EncodeNTPReply echoes the client stamp and carries the server's Unix
// time in milliseconds.
func EncodeNTPReply(clientStamp uint64, serverUnixMillis uint64) []byte {
	b := make([]byte, 16)
	put32(b[0:], uint32(clientStamp))
	put32(b[4:], uint32(clientStamp>>32))
	put32(b[8:], uint32(serverUnixMillis))
	put32(b[12:], uint32(serverUnixMillis>>32))
	return b
}

// DecodeNTPReply parses a time reply.
func DecodeNTPReply(p []byte) (clientStamp, serverUnixMillis uint64, err error) {
	if len(p) < 16 {
		return 0, 0, ErrBadPacket
	}
	clientStamp = uint64(le32(p[0:])) | uint64(le32(p[4:]))<<32
	serverUnixMillis = uint64(le32(p[8:])) | uint64(le32(p[12:]))<<32
	return clientStamp, serverUnixMillis, nil
}

// --- MQTT (simplified 3.1.1-style control packets) ---

// MQTT packet types.
const (
	MQTTConnect   = 1
	MQTTConnAck   = 2
	MQTTSubscribe = 3
	MQTTSubAck    = 4
	MQTTPublish   = 5
	MQTTPingReq   = 6
	MQTTPingResp  = 7
)

// MQTTPacket is one control packet: a type plus up to two strings, and
// an optional trace ID (internal/fleetobs distributed tracing). A zero
// TraceID encodes to exactly the historical bytes; a nonzero one appends
// an 8-byte big-endian trailer, which old decoders ignore (the length
// checks below tolerate trailing bytes).
type MQTTPacket struct {
	Type    uint8
	Topic   string
	Payload []byte
	TraceID uint64
}

// EncodeMQTT serialises a control packet.
func EncodeMQTT(p MQTTPacket) []byte { return AppendMQTT(nil, p) }

// AppendMQTT appends a serialised control packet to dst.
func AppendMQTT(dst []byte, p MQTTPacket) []byte {
	n := 3 + len(p.Topic) + 2 + len(p.Payload)
	if p.TraceID != 0 {
		n += 8
	}
	dst, b := grow(dst, n)
	b[0] = p.Type
	put16(b[1:], uint16(len(p.Topic)))
	copy(b[3:], p.Topic)
	put16(b[3+len(p.Topic):], uint16(len(p.Payload)))
	copy(b[5+len(p.Topic):], p.Payload)
	if p.TraceID != 0 {
		off := 5 + len(p.Topic) + len(p.Payload)
		for i := 0; i < 8; i++ {
			b[off+i] = byte(p.TraceID >> (56 - 8*i))
		}
	}
	return dst
}

// DecodeMQTT parses a control packet, recovering the trace trailer when
// present. The payload aliases b.
func DecodeMQTT(b []byte) (MQTTPacket, error) { return DecodeMQTTTopic(b, "") }

// DecodeMQTTTopic is DecodeMQTT for a decoder that keeps the last topic it
// saw: when the packet's topic bytes equal topic, the packet reuses that
// string instead of allocating a new one.
func DecodeMQTTTopic(b []byte, topic string) (MQTTPacket, error) {
	if len(b) < 5 {
		return MQTTPacket{}, ErrBadPacket
	}
	tl := int(le16(b[1:]))
	if len(b) < 5+tl {
		return MQTTPacket{}, ErrBadPacket
	}
	pl := int(le16(b[3+tl:]))
	if len(b) < 5+tl+pl {
		return MQTTPacket{}, ErrBadPacket
	}
	pkt := MQTTPacket{Type: b[0], Topic: topic, Payload: b[5+tl : 5+tl+pl]}
	if string(b[3:3+tl]) != topic {
		pkt.Topic = string(b[3 : 3+tl])
	}
	if rest := b[5+tl+pl:]; len(rest) >= 8 {
		for i := 0; i < 8; i++ {
			pkt.TraceID = pkt.TraceID<<8 | uint64(rest[i])
		}
	}
	return pkt, nil
}
