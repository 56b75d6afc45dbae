package netproto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Dst: IPv4(10, 0, 0, 2), Src: IPv4(10, 0, 0, 1), Proto: ProtoUDP}
	frame := EncodeHeader(h, []byte("payload"))
	got, payload, err := DecodeHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != h.Dst || got.Src != h.Src || got.Proto != ProtoUDP {
		t.Fatalf("header = %+v", got)
	}
	if string(payload) != "payload" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestPingOfDeathShape(t *testing.T) {
	// A frame whose header advertises more payload than the frame holds
	// must be rejected by a careful parser.
	h := Header{Dst: 1, Src: 2, Proto: ProtoICMP}
	frame := EncodeHeader(h, []byte{ICMPEchoRequest, 1, 2, 3})
	frame[10] = 0xff // inflate the length field
	frame[11] = 0x0f
	if _, _, err := DecodeHeader(frame); err != ErrTruncated {
		t.Fatalf("oversized length accepted: %v", err)
	}
}

func TestUDPTCPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 1234, DstPort: PortDNS, Data: []byte("q")}
	du, err := DecodeUDP(EncodeUDP(u))
	if err != nil || du.SrcPort != 1234 || du.DstPort != PortDNS || string(du.Data) != "q" {
		t.Fatalf("udp = %+v, %v", du, err)
	}
	tc := TCP{SrcPort: 5000, DstPort: PortMQTT, Seq: 42, Flags: TCPSyn | TCPAck, Data: []byte("hi")}
	dt, err := DecodeTCP(EncodeTCP(tc))
	if err != nil || dt.Seq != 42 || dt.Flags != TCPSyn|TCPAck || string(dt.Data) != "hi" {
		t.Fatalf("tcp = %+v, %v", dt, err)
	}
}

func TestTLSHandshakeAndRecords(t *testing.T) {
	root := []byte("pinned-root-secret")
	cr := bytes.Repeat([]byte{1}, RandomBytes)
	sr := bytes.Repeat([]byte{2}, RandomBytes)

	hello := EncodeClientHello(cr)
	gotCR, err := DecodeClientHello(hello)
	if err != nil || !bytes.Equal(gotCR, cr) {
		t.Fatalf("client hello: %v", err)
	}
	sh := EncodeServerHello(root, sr, []byte("device-ca-cert"))
	gotSR, cert, err := DecodeServerHello(root, sh)
	if err != nil || !bytes.Equal(gotSR, sr) || string(cert) != "device-ca-cert" {
		t.Fatalf("server hello: %v", err)
	}
	// A tampered certificate fails verification against the pinned root.
	bad := append([]byte(nil), sh...)
	bad[1+RandomBytes+3] ^= 1
	if _, _, err := DecodeServerHello(root, bad); err != ErrBadMAC {
		t.Fatalf("tampered cert accepted: %v", err)
	}

	key := SessionKey(root, cr, sr)
	client, server := NewSession(key), NewSession(key)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 0xaa, 0xbb}
		rec := client.Seal(msg)
		got, err := server.Open(rec)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	// Tampered record: MAC failure (fresh sessions; a MAC failure kills a
	// stream, as in real TLS).
	c2, s2 := NewSession(key), NewSession(key)
	rec := c2.Seal([]byte("secret"))
	rec[6] ^= 0xff
	if _, err := s2.Open(rec); err != ErrBadMAC {
		t.Fatalf("tampered record accepted: %v", err)
	}
	// Replay (stale counter): MAC failure.
	c3, s3 := NewSession(key), NewSession(key)
	rec2 := c3.Seal([]byte("x"))
	if _, err := s3.Open(rec2); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Open(rec2); err != ErrBadMAC {
		t.Fatalf("replayed record accepted: %v", err)
	}
}

// TestSessionKnownAnswer pins the records a fixed session key seals, so
// that a change to the IV, the MAC key or the record framing fails here
// even when a twin session would still round-trip it.
func TestSessionKnownAnswer(t *testing.T) {
	key := SessionKey([]byte("kat root secret"), []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	p1 := make([]byte, 32)
	for i := range p1 {
		p1[i] = byte(i)
	}
	p2 := make([]byte, 512)
	for i := range p2 {
		p2[i] = byte(i*7 + 3)
	}
	// A 4,112-byte record is 257 AES blocks: its CTR counter carries
	// from the last byte of the counter block into the one before it.
	p3 := make([]byte, 4112)
	for i := range p3 {
		p3[i] = byte(i*13 + i>>8)
	}
	plain := [][]byte{nil, p1, p2, p3}
	want := []string{
		"0300000000e3c41763dbe48c49",
		"0320000000db794ee84796ef20776f17a22f7b63398eda6d1181fa9810fe706f26b719d079bafb27097ba2508a",
		"030002000048ce01d5420dd36abd7600054b8f38751c6989a20f8d4e27a930c7" +
			"5228a85418bfbd098219b46c027a95173f4c91b53ac653ce9b096148b49bfaa6" +
			"99d51fcd84c7ed749ba6bf920fde1e31c91d48e717f46bb26900408ef97acaa4" +
			"924118c95f78fd702908806e05d3fe7bcb26f8a1ac2e2e375b403b6f4fa9e7fa" +
			"230c470c895ebf290c31bfd809df93f261fa3d0c7e9ee2a64aeacafbc2309431" +
			"c45b817bc6c4badd6ea84f1ab29e7d87e16780d2035f3b3873d1e0bbf9b517dc" +
			"60c7dd00722e5adc8eef82c656e76837d3e95458ef21b9d3e0e85349a441f9b3" +
			"ee1e083846f012ca34057b36722ade8aabcccca40e0474c368330927ee831680" +
			"395a9609bdc2f9b9f8cd52ec59372dd95f64f7d21b739f1c67750069732c4ba9" +
			"0daea57eb5720c35d47db765251874bdb09877223117428d9b4236991b04b938" +
			"3dafebac9326c44c53f9632f7348e7f3c66f6add032bf33af46985a8d314df99" +
			"c8301179af6c3b121538449c0e7564c7eee4d1ba6f4d47e5d83ce782041acd6b" +
			"13f67aca4f29c75588dba58c670a823919698511237d7fdf07a43c4fc2652355" +
			"dcbcd07e5e2eee00ad44fca91d2dfe98e8a1b1b3d515398582c169d5c8edd5b8" +
			"c230d57d6c25a479b5116304949d7a5407b289eacc453e98c81ffb3ae3dc37de" +
			"2e50b99b914adc17a417e078331bfb4e42c85baf3696bd592a18a0d9f876a22a" +
			"7e703e8dbdef9dbcc6d933e1a0",
	}
	// The long record is pinned by its SHA-256 and its last 32 bytes
	// (the end of the ciphertext and the MAC).
	const wantLongSum = "4beb3d6b5742cbe085fc51d6985eecff3835a8c0e272ffe76567d69d276303da"
	const wantLongTail = "85c29c64c4fd5557c71c92234a79c04cb20d899fbbbac251dbaf23e830616f61"
	tx, rx := NewSession(key), NewSession(key)
	var records [][]byte
	for i, p := range plain {
		rec := tx.Seal(p)
		if i < len(want) {
			if got := hex.EncodeToString(rec); got != want[i] {
				t.Fatalf("record %d = %s, want %s", i, got, want[i])
			}
		} else {
			sum := sha256.Sum256(rec)
			if got := hex.EncodeToString(sum[:]); got != wantLongSum {
				t.Fatalf("record %d SHA-256 = %s, want %s", i, got, wantLongSum)
			}
			if got := hex.EncodeToString(rec[len(rec)-32:]); got != wantLongTail {
				t.Fatalf("record %d tail = %s, want %s", i, got, wantLongTail)
			}
		}
		records = append(records, rec)
	}
	for i, rec := range records {
		got, err := rx.Open(rec)
		if err != nil || !bytes.Equal(got, plain[i]) {
			t.Fatalf("open record %d: %x, %v", i, got, err)
		}
	}
	// Record 1 carries the MAC for counter 1: a fresh session expects 0.
	if _, err := NewSession(key).Open(records[1]); err != ErrBadMAC {
		t.Fatalf("record 1 opened out of order: %v", err)
	}
}

// TestSessionMatchesCTRReference seals and opens a record of every length
// from 0 to 4,200 bytes and compares each with a record built from
// crypto/cipher's CTR stream and an HMAC-SHA256 keyed with the second
// half of the session key, under the same per-record counter nonce.
func TestSessionMatchesCTRReference(t *testing.T) {
	key := SessionKey([]byte("ctr root secret"), []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		t.Fatal(err)
	}
	reference := func(plain []byte, counter uint32) []byte {
		n := len(plain)
		rec := make([]byte, 5+n+recordMACLen)
		rec[0] = TLSRecord
		put32(rec[1:], uint32(n))
		var iv [aes.BlockSize]byte
		put32(iv[:], counter)
		cipher.NewCTR(block, iv[:]).XORKeyStream(rec[5:5+n], plain)
		mac := hmac.New(sha256.New, key[16:32])
		var c [4]byte
		put32(c[:], counter)
		mac.Write(c[:])
		mac.Write(rec[5 : 5+n])
		copy(rec[5+n:], mac.Sum(nil))
		return rec
	}
	tx, rx := NewSession(key), NewSession(key)
	plain := make([]byte, 4200)
	for i := range plain {
		plain[i] = byte(i*31 + 7)
	}
	for n := 0; n <= len(plain); n++ {
		rec := tx.Seal(plain[:n])
		if want := reference(plain[:n], uint32(n)); !bytes.Equal(rec, want) {
			t.Fatalf("record of %d bytes differs from the CTR reference", n)
		}
		got, err := rx.Open(rec)
		if err != nil || !bytes.Equal(got, plain[:n]) {
			t.Fatalf("open record of %d bytes: %v", n, err)
		}
	}
}

func TestSessionKeysDifferPerHandshake(t *testing.T) {
	root := []byte("root")
	k1 := SessionKey(root, []byte("aaaaaaaaaaaaaaaa"), []byte("bbbbbbbbbbbbbbbb"))
	k2 := SessionKey(root, []byte("aaaaaaaaaaaaaaaa"), []byte("cccccccccccccccc"))
	if bytes.Equal(k1, k2) {
		t.Fatal("session keys must depend on the randoms")
	}
}

func TestDNSAndNTPRoundTrip(t *testing.T) {
	id, name, err := DecodeDNSQuery(EncodeDNSQuery(7, "broker.example"))
	if err != nil || id != 7 || name != "broker.example" {
		t.Fatalf("dns query: %v %d %q", err, id, name)
	}
	rid, ip, err := DecodeDNSReply(EncodeDNSReply(7, IPv4(10, 0, 0, 9)))
	if err != nil || rid != 7 || ip != IPv4(10, 0, 0, 9) {
		t.Fatalf("dns reply: %v", err)
	}
	stamp, millis, err := DecodeNTPReply(EncodeNTPReply(123456789, 1_750_000_000_000))
	if err != nil || stamp != 123456789 || millis != 1_750_000_000_000 {
		t.Fatalf("ntp: %v %d %d", err, stamp, millis)
	}
}

func TestMQTTRoundTrip(t *testing.T) {
	for _, p := range []MQTTPacket{
		{Type: MQTTConnect, Topic: "client-1"},
		{Type: MQTTSubscribe, Topic: "devices/led"},
		{Type: MQTTPublish, Topic: "devices/led", Payload: []byte{1}},
		{Type: MQTTPingReq},
	} {
		got, err := DecodeMQTT(EncodeMQTT(p))
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got.Type != p.Type || got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("round trip %+v -> %+v", p, got)
		}
	}
}

// TestMQTTTraceTrailer covers the optional 8-byte trace trailer: a
// traced packet round-trips its ID; an untraced packet encodes to
// exactly the legacy bytes (the zero-cost-when-disabled contract).
func TestMQTTTraceTrailer(t *testing.T) {
	base := MQTTPacket{Type: MQTTPublish, Topic: "fleet/3", Payload: []byte("abc")}
	plain := EncodeMQTT(base)

	traced := base
	traced.TraceID = 0x0000040000000007
	b := EncodeMQTT(traced)
	if len(b) != len(plain)+8 {
		t.Fatalf("trailer adds %d bytes, want 8", len(b)-len(plain))
	}
	if !bytes.Equal(b[:len(plain)], plain) {
		t.Fatal("traced encoding changed the legacy prefix")
	}
	got, err := DecodeMQTT(b)
	if err != nil || got.TraceID != traced.TraceID {
		t.Fatalf("trace round trip: %v, %x", err, got.TraceID)
	}
	if got.Topic != base.Topic || !bytes.Equal(got.Payload, base.Payload) {
		t.Fatalf("trace trailer corrupted fields: %+v", got)
	}

	// Untraced decodes carry zero; legacy decoders never see the trailer.
	got, err = DecodeMQTT(plain)
	if err != nil || got.TraceID != 0 {
		t.Fatalf("plain packet decoded trace %x (%v)", got.TraceID, err)
	}
}

func TestPropMQTTNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeMQTT(b)
		_, _ = DecodeUDP(b)
		_, _ = DecodeTCP(b)
		_, _, _ = DecodeHeader(b)
		_, _, _ = DecodeDNSQuery(b)
		_, _, _ = DecodeDNSReply(b)
		_, _, _ = DecodeNTPReply(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTLSRecordRoundTrip(t *testing.T) {
	key := SessionKey([]byte("r"), []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	f := func(msgs [][]byte) bool {
		a, b := NewSession(key), NewSession(key)
		for _, m := range msgs {
			got, err := b.Open(a.Seal(m))
			if err != nil || !bytes.Equal(got, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
