package mem

import "math/bits"

// Revocation-bit management. One bit per 8-byte granule of SRAM, stored in
// a dedicated region in hardware; here a sidecar bitmap. The allocator sets
// the bits when an object is freed, the load filter consults them on every
// capability load, and the revoker clears in-memory tags during its sweep.

// Revoke sets the revocation bits for [addr, addr+n). From this moment,
// loading any capability whose base lies in the range yields an untagged
// value: use of freed memory traps as soon as free returns (§3.1.3).
func (m *Memory) Revoke(addr, n uint32) {
	if n == 0 || !m.inSRAM(addr, n) {
		return
	}
	m.revoked.SetRange(m.granule(addr), m.granule(addr+n-1))
}

// ClearRevoked clears the revocation bits for [addr, addr+n). The
// allocator calls it when taking an object out of quarantine after a full
// revocation sweep has completed.
func (m *Memory) ClearRevoked(addr, n uint32) {
	if n == 0 || !m.inSRAM(addr, n) {
		return
	}
	m.revoked.ClearRange(m.granule(addr), m.granule(addr+n-1))
}

func (m *Memory) isRevoked(addr uint32) bool {
	if !m.inSRAM(addr, 1) {
		return false
	}
	return m.revoked.get(m.granule(addr))
}

// IsRevoked reports whether the granule containing addr is revoked. It is
// exported for the revoker and for tests.
func (m *Memory) IsRevoked(addr uint32) bool { return m.isRevoked(addr) }

// SweepGranules runs the revoker's work over granules [start, start+count),
// clipped to the end of SRAM: every tagged granule whose stored capability
// has a revoked base loses its tag. It returns the index one past the last
// granule visited, for the revoker's resumable sweep pointer.
//
// The sweep reads the tag bitmap a 64-granule word at a time, as the
// revoker reads its tag RAM a line at a time: a word with no tags in the
// window (most of SRAM holds no capabilities) is skipped in one compare,
// and a non-empty word costs one lookup of its capabilities, whose
// revoked-base checks run in granule order.
func (m *Memory) SweepGranules(start, count uint32) uint32 {
	end := m.Granules()
	if uint64(start)+uint64(count) < uint64(end) {
		end = start + count
	}
	if start >= end {
		return end
	}
	m.tags.rangeWords(start, end-1, func(w uint32, mask uint64) {
		word := m.tags[w]
		live := word & mask
		if live == 0 {
			return
		}
		cs := m.caps[w]
		i := bits.OnesCount64(word & (live&-live - 1)) // tags below the window
		var drop uint64
		for rest := live; rest != 0; rest &= rest - 1 {
			if m.isRevoked(cs[i].Base()) {
				drop |= rest & -rest
			}
			i++
		}
		m.untag(w, drop)
	})
	return end
}
