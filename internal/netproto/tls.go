package netproto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"hash"
)

// Toy TLS.
//
// The paper runs BearSSL; our substitute keeps the *structure* of a TLS
// deployment — a handshake that derives per-session keys, certificate
// verification against a pinned root, and encrypted, authenticated
// records — while replacing the public-key legs with a pre-shared-secret
// construction (real elliptic-curve math adds nothing to the OS claims
// being reproduced). Everything uses Go's stdlib crypto.
//
// Handshake:
//
//	C -> S: ClientHello  { clientRandom[16] }
//	S -> C: ServerHello  { serverRandom[16], cert, mac }
//	          mac = HMAC(rootSecret, serverRandom || cert)
//	both:    sessionKey = SHA256(rootSecret || clientRandom || serverRandom)
//
// Records: AES-CTR encrypted, HMAC-SHA256/8 authenticated, length-framed.
const (
	RandomBytes  = 16
	recordMACLen = 8
)

// ErrBadMAC reports a record or certificate that failed authentication.
var ErrBadMAC = errors.New("netproto: TLS authentication failed")

// Handshake message types.
const (
	TLSClientHello = 1
	TLSServerHello = 2
	TLSRecord      = 3
)

// EncodeClientHello builds the ClientHello message.
func EncodeClientHello(clientRandom []byte) []byte { return AppendClientHello(nil, clientRandom) }

// AppendClientHello appends the ClientHello message to dst.
func AppendClientHello(dst, clientRandom []byte) []byte {
	dst, b := grow(dst, 1+RandomBytes)
	b[0] = TLSClientHello
	copy(b[1:], clientRandom)
	return dst
}

// DecodeClientHello parses a ClientHello.
func DecodeClientHello(p []byte) ([]byte, error) {
	if len(p) < 1+RandomBytes || p[0] != TLSClientHello {
		return nil, ErrTruncated
	}
	return p[1 : 1+RandomBytes], nil
}

// EncodeServerHello builds the ServerHello carrying the certificate and
// its MAC under the pinned root secret.
func EncodeServerHello(rootSecret, serverRandom, cert []byte) []byte {
	mac := certMAC(rootSecret, serverRandom, cert)
	b := make([]byte, 1+RandomBytes+1+len(cert)+len(mac))
	b[0] = TLSServerHello
	copy(b[1:], serverRandom)
	b[1+RandomBytes] = byte(len(cert))
	copy(b[2+RandomBytes:], cert)
	copy(b[2+RandomBytes+len(cert):], mac)
	return b
}

// DecodeServerHello parses and *verifies* a ServerHello against the
// pinned root secret, returning the server random and certificate.
func DecodeServerHello(rootSecret, p []byte) (serverRandom, cert []byte, err error) {
	if len(p) < 2+RandomBytes || p[0] != TLSServerHello {
		return nil, nil, ErrTruncated
	}
	serverRandom = p[1 : 1+RandomBytes]
	certLen := int(p[1+RandomBytes])
	rest := p[2+RandomBytes:]
	if len(rest) < certLen+sha256.Size {
		return nil, nil, ErrTruncated
	}
	cert = rest[:certLen]
	mac := rest[certLen : certLen+sha256.Size]
	if !hmac.Equal(mac, certMAC(rootSecret, serverRandom, cert)) {
		return nil, nil, ErrBadMAC
	}
	return serverRandom, cert, nil
}

func certMAC(rootSecret, serverRandom, cert []byte) []byte {
	m := hmac.New(sha256.New, rootSecret)
	m.Write(serverRandom)
	m.Write(cert)
	return m.Sum(nil)
}

// SessionKey derives the shared session key.
func SessionKey(rootSecret, clientRandom, serverRandom []byte) []byte {
	h := sha256.New()
	h.Write(rootSecret)
	h.Write(clientRandom)
	h.Write(serverRandom)
	return h.Sum(nil) // 32 bytes: 16 for AES-128, 16 for the MAC key
}

// Session is one direction-agnostic record codec. Each side keeps one,
// with its own send/receive counters for the CTR nonces.
//
// A Session is not safe for concurrent use. Its callers serialize it: the
// broker seals and opens a connection's records only while holding that
// connection's BrokerSession.mu, and a device uses its sessions only from
// its one running thread.
//
// SealOwned and OpenOwned work in two buffers the session owns, one per
// direction, made on first use: a sealed record is valid until the next
// SealOwned, a plaintext until the next OpenOwned. The broker reads a
// device's plaintext after releasing the session lock while a cloud
// publish may seal into the same session, which is why the directions
// never share a buffer.
type Session struct {
	block  cipher.Block            // AES-128 under the first half of the session key
	mac    hash.Hash               // HMAC-SHA256 under the second half, reset per record
	sum    [sha256.Size]byte       // recordMAC's output
	seq    [4]byte                 // recordMAC's record counter
	ctr    [aes.BlockSize]byte     // crypt's counter block
	ks     [8 * aes.BlockSize]byte // crypt's keystream, eight blocks at a time
	sendN  uint32
	recvN  uint32
	sealed []byte // SealOwned's record
	opened []byte // OpenOwned's plaintext
}

// NewSession builds a record codec from a derived session key. It expands
// the AES key and keys the HMAC once; each record reuses both.
func NewSession(key []byte) *Session {
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // key length is fixed; cannot happen
	}
	return &Session{block: block, mac: hmac.New(sha256.New, key[16:32])}
}

// Seal encrypts and authenticates one record into a fresh slice.
func (s *Session) Seal(plaintext []byte) []byte { return s.AppendSeal(nil, plaintext) }

// SealOwned is Seal into the session's seal buffer: the record is valid
// until the session's next SealOwned.
func (s *Session) SealOwned(plaintext []byte) []byte {
	s.sealed = s.AppendSeal(s.sealed[:0], plaintext)
	return s.sealed
}

// AppendSeal encrypts and authenticates one record and appends it to dst.
// plaintext must not overlap the appended bytes.
func (s *Session) AppendSeal(dst, plaintext []byte) []byte {
	n := len(plaintext)
	dst, b := grow(dst, 1+4+n+recordMACLen)
	b[0] = TLSRecord
	put32(b[1:], uint32(n))
	ct := b[5 : 5+n]
	s.crypt(ct, plaintext, s.sendN)
	copy(b[5+n:], s.recordMAC(ct, s.sendN)[:recordMACLen])
	s.sendN++
	return dst
}

// Open verifies and decrypts one record into a fresh slice.
func (s *Session) Open(record []byte) ([]byte, error) { return s.AppendOpen(nil, record) }

// OpenOwned is Open into the session's open buffer: the plaintext is
// valid until the session's next OpenOwned.
func (s *Session) OpenOwned(record []byte) ([]byte, error) {
	pt, err := s.AppendOpen(s.opened[:0], record)
	if err == nil {
		s.opened = pt
	}
	return pt, err
}

// AppendOpen verifies and decrypts one record and appends its plaintext
// to dst; on an error it returns dst unchanged. record must not overlap
// the appended bytes.
func (s *Session) AppendOpen(dst, record []byte) ([]byte, error) {
	if len(record) < 5+recordMACLen || record[0] != TLSRecord {
		return dst, ErrTruncated
	}
	n := int(le32(record[1:]))
	if len(record)-5-recordMACLen < n {
		return dst, ErrTruncated
	}
	ct := record[5 : 5+n]
	mac := record[5+n : 5+n+recordMACLen]
	if !hmac.Equal(mac, s.recordMAC(ct, s.recvN)[:recordMACLen]) {
		return dst, ErrBadMAC
	}
	dst, pt := grow(dst, n)
	s.crypt(pt, ct, s.recvN)
	s.recvN++
	return dst, nil
}

// crypt applies AES-128-CTR with a per-record nonce, writing dst. The
// counter block starts as the record counter, little-endian, then zeros,
// and counts up as one big-endian number, as crypto/cipher's CTR does;
// the counter and keystream live in the Session so that a record
// allocates nothing.
func (s *Session) crypt(dst, src []byte, counter uint32) {
	s.ctr = [aes.BlockSize]byte{}
	put32(s.ctr[:], counter)
	for len(src) > 0 {
		ks := s.ks[:min(len(s.ks), len(src)+aes.BlockSize-1)&^(aes.BlockSize-1)]
		for b := 0; b < len(ks); b += aes.BlockSize {
			s.block.Encrypt(ks[b:], s.ctr[:])
			for i := len(s.ctr) - 1; i >= 0; i-- {
				if s.ctr[i]++; s.ctr[i] != 0 {
					break
				}
			}
		}
		n := subtle.XORBytes(dst, src, ks)
		dst, src = dst[n:], src[n:]
	}
}

// recordMAC returns the record's HMAC; the result is valid until the
// session's next record.
func (s *Session) recordMAC(ct []byte, counter uint32) []byte {
	s.mac.Reset()
	put32(s.seq[:], counter)
	s.mac.Write(s.seq[:])
	s.mac.Write(ct)
	return s.mac.Sum(s.sum[:0])
}
