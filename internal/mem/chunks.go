package mem

// The copy-on-write chunk store behind Memory's data bytes: the chunk
// table, the shared read-only store and the private store (see Memory).

// chunkBytes is the copy-on-write unit of SRAM data.
const chunkBytes = 256

// privChunk marks a chunk table entry as a slot of the private store.
const privChunk = 1 << 31

// zeroChunk is the shared store of a memory fresh from New, and the
// contents of slot 0 of every snapshot's store. Nothing writes it.
var zeroChunk [chunkBytes]byte

// chunk returns chunk i's bytes for reading.
func (m *Memory) chunk(i uint32) []byte {
	l := m.chunks[i]
	if l&privChunk != 0 {
		off := (l &^ privChunk) * chunkBytes
		return m.priv[off : off+chunkBytes]
	}
	return m.shared[l*chunkBytes : (l+1)*chunkBytes]
}

// writable returns chunk i's bytes for writing, first copying a shared
// chunk into the private store. The slice is valid until the next call,
// which may move the private store.
func (m *Memory) writable(i uint32) []byte {
	l := m.chunks[i]
	if l&privChunk == 0 {
		n := len(m.priv)
		if n == cap(m.priv) {
			grown := make([]byte, n, max(2*n, 8*chunkBytes))
			copy(grown, m.priv)
			m.priv = grown
		}
		m.priv = append(m.priv, m.shared[l*chunkBytes:(l+1)*chunkBytes]...)
		l = privChunk | uint32(n/chunkBytes)
		m.chunks[i] = l
	}
	off := (l &^ privChunk) * chunkBytes
	return m.priv[off : off+chunkBytes]
}

// read copies the SRAM bytes at addr into dst.
func (m *Memory) read(dst []byte, addr uint32) {
	for len(dst) > 0 {
		n := copy(dst, m.chunk(addr / chunkBytes)[addr%chunkBytes:])
		dst, addr = dst[n:], addr+uint32(n)
	}
}

// write copies src into SRAM at addr.
func (m *Memory) write(addr uint32, src []byte) {
	for len(src) > 0 {
		n := copy(m.writable(addr / chunkBytes)[addr%chunkBytes:], src)
		src, addr = src[n:], addr+uint32(n)
	}
}

// load32 reads the little-endian word at addr.
func (m *Memory) load32(addr uint32) uint32 {
	if off := addr % chunkBytes; off <= chunkBytes-4 {
		return le32(m.chunk(addr / chunkBytes)[off:])
	}
	var b [4]byte
	m.read(b[:], addr)
	return le32(b[:])
}

// store32 writes the little-endian word v at addr.
func (m *Memory) store32(addr, v uint32) {
	if off := addr % chunkBytes; off <= chunkBytes-4 {
		put32(m.writable(addr / chunkBytes)[off:], v)
		return
	}
	var b [4]byte
	put32(b[:], v)
	m.write(addr, b[:])
}

// zero clears n bytes at addr. A whole shared chunk becomes the zero
// chunk without a copy, and the zero chunk needs nothing.
func (m *Memory) zero(addr, n uint32) {
	for n > 0 {
		i, off := addr/chunkBytes, addr%chunkBytes
		k := min(n, chunkBytes-off)
		switch l := m.chunks[i]; {
		case l == 0:
		case k == chunkBytes && l&privChunk == 0:
			m.chunks[i] = 0
		default:
			clear(m.writable(i)[off : off+k])
		}
		addr, n = addr+k, n-k
	}
}
