package netproto

import (
	"bytes"
	"testing"
)

// fuzzKey keys the sessions FuzzWireCodecs opens records with; the seed
// corpus holds records sealed under it.
var fuzzKey = SessionKey([]byte("fuzz-root"), make([]byte, RandomBytes), make([]byte, RandomBytes))

// appendEncoders lists each append encoder applied to a sample value.
func appendEncoders() map[string]func(dst []byte) []byte {
	data := bytes.Repeat([]byte{0xa5}, 40)
	return map[string]func(dst []byte) []byte{
		"header": func(dst []byte) []byte { return AppendHeader(dst, Header{Dst: 1, Src: 2, Proto: ProtoTCP}, data) },
		"icmp":   func(dst []byte) []byte { return AppendICMP(dst, ICMPEchoRequest, data) },
		"udp":    func(dst []byte) []byte { return AppendUDP(dst, UDP{SrcPort: 1, DstPort: 2, Data: data}) },
		"tcp": func(dst []byte) []byte {
			return AppendTCP(dst, TCP{SrcPort: 1, DstPort: 2, Seq: 3, Flags: TCPAck, Data: data})
		},
		"mqtt": func(dst []byte) []byte {
			return AppendMQTT(dst, MQTTPacket{Type: MQTTPublish, Topic: "fleet/1", Payload: data, TraceID: 7})
		},
		"client-hello": func(dst []byte) []byte { return AppendClientHello(dst, data[:RandomBytes]) },
	}
}

// TestAppendEncodersAllocateNothing pins every append encoder at zero
// allocations into a buffer with room, and checks each matches its
// Encode wrapper.
func TestAppendEncodersAllocateNothing(t *testing.T) {
	for name, enc := range appendEncoders() {
		buf := make([]byte, 0, 256)
		if allocs := testing.AllocsPerRun(100, func() { buf = enc(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: the append encoder allocates %.1f objects, want 0", name, allocs)
		}
		if fresh := enc(nil); !bytes.Equal(buf, fresh) {
			t.Errorf("%s: encoding into a buffer gave % x, into nil % x", name, buf, fresh)
		}
	}
	wrappers := map[string][]byte{
		"header": EncodeHeader(Header{Dst: 1, Src: 2, Proto: ProtoTCP}, bytes.Repeat([]byte{0xa5}, 40)),
		"icmp":   EncodeICMP(ICMPEchoRequest, bytes.Repeat([]byte{0xa5}, 40)),
		"udp":    EncodeUDP(UDP{SrcPort: 1, DstPort: 2, Data: bytes.Repeat([]byte{0xa5}, 40)}),
		"tcp":    EncodeTCP(TCP{SrcPort: 1, DstPort: 2, Seq: 3, Flags: TCPAck, Data: bytes.Repeat([]byte{0xa5}, 40)}),
		"mqtt": EncodeMQTT(MQTTPacket{Type: MQTTPublish, Topic: "fleet/1",
			Payload: bytes.Repeat([]byte{0xa5}, 40), TraceID: 7}),
		"client-hello": EncodeClientHello(bytes.Repeat([]byte{0xa5}, RandomBytes)),
	}
	for name, enc := range appendEncoders() {
		if got := enc(nil); !bytes.Equal(got, wrappers[name]) {
			t.Errorf("%s: the append encoder gave % x, the Encode wrapper % x", name, got, wrappers[name])
		}
	}
}

// TestSealOpenIntoBuffersAllocateNothing pins sealing and opening into
// caller buffers and into the session's own buffers at zero
// allocations, each pair yielding the plaintext sealed.
func TestSealOpenIntoBuffersAllocateNothing(t *testing.T) {
	plain := bytes.Repeat([]byte{0x5a}, 200)
	tx, rx := NewSession(fuzzKey), NewSession(fuzzKey)
	var rec, pt []byte
	var err error
	callers := func() {
		rec = tx.AppendSeal(rec[:0], plain)
		pt, err = rx.AppendOpen(pt[:0], rec)
	}
	owned := func() { pt, err = rx.OpenOwned(tx.SealOwned(plain)) }
	for _, c := range []struct {
		name string
		f    func()
	}{{"caller buffers", callers}, {"session buffers", owned}} {
		c.f() // first use makes the buffers
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: a seal and open allocate %.1f objects, want 0", c.name, allocs)
		}
		if err != nil || !bytes.Equal(pt, plain) {
			t.Errorf("%s: opened %d bytes, %v; want the %d sealed", c.name, len(pt), err, len(plain))
		}
	}
}

// TestOpenOwnedKeepsPlaintextOnError: a record that fails to open leaves
// the session's last plaintext as it was, and a seal does not touch it.
func TestOpenOwnedKeepsPlaintextOnError(t *testing.T) {
	tx, rx := NewSession(fuzzKey), NewSession(fuzzKey)
	pt, err := rx.OpenOwned(tx.SealOwned([]byte("first")))
	if err != nil {
		t.Fatal(err)
	}
	bad := tx.Seal([]byte("second"))
	bad[len(bad)-1] ^= 1
	if _, err := rx.OpenOwned(bad); err != ErrBadMAC {
		t.Fatalf("a corrupted record opened: %v", err)
	}
	rx.SealOwned([]byte("a reply"))
	if string(pt) != "first" {
		t.Fatalf("the plaintext reads %q after a failed open and a seal, want %q", pt, "first")
	}
}

// FuzzWireCodecs feeds one input to every wire decoder and checks three
// properties: no decoder panics (Session.Open included); whatever decodes
// re-encodes, through the append encoders, to exactly the bytes the
// decoder consumed; and appending onto a non-empty dst leaves the prefix
// untouched and adds the same bytes as a nil dst. A record that opens is
// re-sealed by a sender session at the same record counter.
func FuzzWireCodecs(f *testing.F) {
	f.Add(EncodeHeader(Header{Dst: 1, Src: 2, Proto: ProtoTCP, Flags: 3},
		EncodeTCP(TCP{SrcPort: 1, DstPort: PortMQTT, Seq: 9, Flags: TCPPsh | TCPAck, Data: []byte("data")})))
	f.Add(EncodeMQTT(MQTTPacket{Type: MQTTPublish, Topic: "fleet/7", Payload: []byte("21.5C"), TraceID: 0xfeed}))
	f.Add(EncodeClientHello(bytes.Repeat([]byte{7}, RandomBytes)))
	f.Add(NewSession(fuzzKey).Seal(EncodeMQTT(MQTTPacket{Type: MQTTPingReq})))
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(what string, consumed []byte, enc func(dst []byte) []byte) {
			t.Helper()
			fresh := enc(nil)
			if !bytes.Equal(fresh, consumed) {
				t.Fatalf("%s: re-encodes to % x, decoded from % x", what, fresh, consumed)
			}
			prefix := []byte("prefix")
			for _, room := range []int{0, len(fresh)} {
				dst := append(make([]byte, 0, len(prefix)+room), prefix...)
				out := enc(dst)
				if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], fresh) {
					t.Fatalf("%s: appending onto %q (room %d) gave % x", what, prefix, room, out)
				}
			}
		}
		if h, payload, err := DecodeHeader(b); err == nil {
			check("header", b[:HeaderBytes+len(payload)], func(dst []byte) []byte { return AppendHeader(dst, h, payload) })
		}
		if u, err := DecodeUDP(b); err == nil {
			check("udp", b, func(dst []byte) []byte { return AppendUDP(dst, u) })
		}
		if seg, err := DecodeTCP(b); err == nil {
			check("tcp", b, func(dst []byte) []byte { return AppendTCP(dst, seg) })
		}
		if p, err := DecodeMQTT(b); err == nil {
			n := 5 + len(p.Topic) + len(p.Payload)
			if p.TraceID != 0 {
				n += 8
			}
			check("mqtt", b[:n], func(dst []byte) []byte { return AppendMQTT(dst, p) })
			if q, _ := DecodeMQTTTopic(b, p.Topic); q.Topic != p.Topic {
				t.Fatalf("mqtt: decoding with the topic %q gave %q", p.Topic, q.Topic)
			}
		}
		if r, err := DecodeClientHello(b); err == nil {
			check("client hello", b[:1+RandomBytes], func(dst []byte) []byte { return AppendClientHello(dst, r) })
		}
		if pt, err := NewSession(fuzzKey).Open(b); err == nil {
			check("tls record", b[:5+len(pt)+recordMACLen], func(dst []byte) []byte {
				return NewSession(fuzzKey).AppendSeal(dst, pt)
			})
		}
	})
}
