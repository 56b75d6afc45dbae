package mem

import (
	"bytes"
	"slices"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// Deep-copy, equality, and snapshot/restore support for snapshot/fork
// boot: a booted template device's SRAM (data bytes, stored capabilities,
// tag and revocation bitmaps) is captured once and stamped out per forked
// device without re-running the loader.
//
// MMIO windows and the load-filter hook are deliberately NOT part of any
// copy: windows hold live device pointers (each forked core re-maps its
// own devices at the same addresses), and the hook is per-device
// observability state installed after boot.

// Clone returns an independent deep copy of the SRAM state: data bytes,
// stored capabilities, and the tag and revocation bitmaps. The clone has
// no MMIO windows and no load-filter hook.
func (m *Memory) Clone() *Memory {
	return &Memory{
		data:    append([]byte(nil), m.data...),
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
	if !bytes.Equal(m.data, o.data) || !m.tags.Equal(o.tags) || !m.revoked.Equal(o.revoked) {
		return false
	}
	for w, word := range m.tags {
		if word != 0 && !slices.Equal(m.caps[uint32(w)], o.caps[uint32(w)]) {
			return false
		}
	}
	return true
}

// snapChunk is one run of non-zero data bytes in a snapshot.
type snapChunk struct {
	off  uint32
	data []byte
}

// Snapshot is an immutable copy of a Memory's SRAM state, optimized for
// repeated Restore: post-boot SRAM is overwhelmingly zero (the loader
// zeroes the heap and erases itself), so only the non-zero runs are
// stored and re-materialized — restoring costs a fresh zeroed
// allocation plus a few sparse copies instead of a full SRAM memcpy.
// Each Restore copies the stored capabilities, a few words of them, into
// one fresh backing array.
type Snapshot struct {
	size    uint32
	chunks  []snapChunk
	tags    Bitmap
	caps    map[uint32][]cap.Capability
	revoked Bitmap
}

// snapChunkBytes is the scan granularity: runs of non-zero data are
// detected and stored in blocks of this size.
const snapChunkBytes = 256

// Snapshot captures the memory's SRAM state (not MMIO windows, not the
// load-filter hook). The result shares nothing with m.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		size:    uint32(len(m.data)),
		tags:    m.tags.Clone(),
		caps:    cloneCaps(m.caps),
		revoked: m.revoked.Clone(),
	}
	// Coalesce adjacent dirty blocks into single chunks.
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 {
			s.chunks = append(s.chunks, snapChunk{
				off:  uint32(runStart),
				data: append([]byte(nil), m.data[runStart:end]...),
			})
			runStart = -1
		}
	}
	for off := 0; off < len(m.data); off += snapChunkBytes {
		end := off + snapChunkBytes
		if end > len(m.data) {
			end = len(m.data)
		}
		dirty := false
		for _, b := range m.data[off:end] {
			if b != 0 {
				dirty = true
				break
			}
		}
		if dirty {
			if runStart < 0 {
				runStart = off
			}
		} else {
			flush(off)
		}
	}
	flush(len(m.data))
	return s
}

// Restore materializes a fresh Memory with the snapshot's SRAM state. The
// result shares nothing mutable with the snapshot; windows and the
// load-filter hook start empty.
func (s *Snapshot) Restore() *Memory {
	m := &Memory{
		data:    make([]byte, s.size),
		tags:    s.tags.Clone(),
		caps:    cloneCaps(s.caps),
		revoked: s.revoked.Clone(),
	}
	for _, ch := range s.chunks {
		copy(m.data[ch.off:], ch.data)
	}
	return m
}
