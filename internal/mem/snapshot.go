package mem

import (
	"bytes"
	"slices"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// Copy, equality, and snapshot/restore support for snapshot/fork boot: a
// booted template device's SRAM (data bytes, stored capabilities, tag and
// revocation bitmaps) is captured once and stamped out per forked device
// without re-running the loader. Forks share the template's data chunks
// read-only and copy a chunk only when they first write it.
//
// MMIO windows and the load-filter hook are deliberately NOT part of any
// copy: windows hold live device pointers (each forked core re-maps its
// own devices at the same addresses), and the hook is per-device
// observability state installed after boot.

// Clone returns an independent copy of the SRAM state: data bytes,
// stored capabilities, and the tag and revocation bitmaps. The clone
// copies the chunk table and the written chunks, and shares the
// read-only ones. It has no MMIO windows and no load-filter hook.
func (m *Memory) Clone() *Memory {
	return &Memory{
		size:    m.size,
		chunks:  slices.Clone(m.chunks),
		shared:  m.shared,
		priv:    bytes.Clone(m.priv),
		tags:    m.tags.Clone(),
		caps:    cloneCaps(m.caps),
		revoked: m.revoked.Clone(),
	}
}

// cloneCaps copies a capability store's non-empty words into one fresh
// backing array. Each word's slice is capped at its length, so growing
// one word reallocates it rather than overwriting its neighbour.
func cloneCaps(src map[uint32][]cap.Capability) map[uint32][]cap.Capability {
	n, words := 0, 0
	for _, cs := range src {
		if len(cs) > 0 {
			n += len(cs)
			words++
		}
	}
	dst := make(map[uint32][]cap.Capability, words)
	flat := make([]cap.Capability, 0, n)
	for w, cs := range src {
		if len(cs) > 0 {
			i := len(flat)
			flat = append(flat, cs...)
			dst[w] = flat[i:len(flat):len(flat)]
		}
	}
	return dst
}

// Equal reports whether two memories hold identical SRAM state: same
// data bytes, same stored capabilities, same tag and revocation bitmaps.
// MMIO windows and the load-filter hook are not compared (see the
// package note above).
func (m *Memory) Equal(o *Memory) bool {
	if m.size != o.size || !m.tags.Equal(o.tags) || !m.revoked.Equal(o.revoked) {
		return false
	}
	for i := range m.chunks {
		if !bytes.Equal(m.chunk(uint32(i)), o.chunk(uint32(i))) {
			return false
		}
	}
	for w, word := range m.tags {
		if word != 0 && !slices.Equal(m.caps[uint32(w)], o.caps[uint32(w)]) {
			return false
		}
	}
	return true
}

// Snapshot is an immutable copy of a Memory's SRAM state, optimized for
// repeated Restore. Its data is a chunk table over one read-only store
// holding the zero chunk and each non-zero chunk once; post-boot SRAM is
// overwhelmingly zero (the loader zeroes the heap and erases itself), so
// the store is small. A restored memory copies the table, 4 bytes per
// chunk, and shares the store, copying a chunk only when it first writes
// it. Each Restore also copies the tag and revocation bitmaps and the
// stored capabilities, a few words of them, into one fresh backing
// array.
type Snapshot struct {
	size    uint32
	chunks  []uint32 // chunk -> slot in data
	data    []byte   // slot 0 is the zero chunk; never written
	tags    Bitmap
	caps    map[uint32][]cap.Capability
	revoked Bitmap
}

// Snapshot captures the memory's SRAM state (not MMIO windows, not the
// load-filter hook). The result shares nothing mutable with m. Only the
// chunks m has written or shares with an earlier snapshot are read;
// those that hold only zeros map to the zero chunk.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		size:    m.size,
		chunks:  make([]uint32, len(m.chunks)),
		data:    make([]byte, chunkBytes),
		tags:    m.tags.Clone(),
		caps:    cloneCaps(m.caps),
		revoked: m.revoked.Clone(),
	}
	for i, l := range m.chunks {
		if l == 0 {
			continue
		}
		if c := m.chunk(uint32(i)); !bytes.Equal(c, zeroChunk[:]) {
			s.chunks[i] = uint32(len(s.data) / chunkBytes)
			s.data = append(s.data, c...)
		}
	}
	return s
}

// Restore materializes a fresh Memory with the snapshot's SRAM state. It
// shares the snapshot's read-only store and nothing mutable; windows and
// the load-filter hook start empty.
func (s *Snapshot) Restore() *Memory {
	return &Memory{
		size:    s.size,
		chunks:  slices.Clone(s.chunks),
		shared:  s.data,
		tags:    s.tags.Clone(),
		caps:    cloneCaps(s.caps),
		revoked: s.revoked.Clone(),
	}
}
