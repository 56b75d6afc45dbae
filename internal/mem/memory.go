// Package mem implements the CHERIoT platform's tagged SRAM.
//
// Memory is byte-addressable data storage plus, for every 8-byte granule, a
// non-addressable tag bit telling whether the granule holds a valid
// capability, and a revocation bit used by the temporal-safety machinery
// (§2.1). All accesses are authorized by a capability; the load path
// implements the hardware load filter (clearing tags of capabilities whose
// base points into revoked memory) and CHERIoT's deep-attenuation rules.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// Granule is the unit of capability storage and revocation tracking.
const Granule = cap.GranuleSize

// Memory is the simulated SRAM plus its tag and revocation-bit sidecars,
// and any memory-mapped devices above the SRAM range.
//
// The data bytes are a table of 256-byte chunks (chunkBytes), stored
// copy-on-write: a chunk this memory has not yet written is read from a
// shared, read-only store (the one zero chunk, or the snapshot's chunk),
// and the first write to it copies it into the memory's private store. A forked device therefore pays host memory only for the chunks
// it writes. The table and both stores are plain integers and bytes, so
// they give the garbage collector nothing to scan.
//
// Capabilities are stored per tag word, as the hardware's tag RAM is read
// a line at a time: caps[w] holds the capabilities of the tagged granules
// of word w of tags, in granule order, so the capability of tagged
// granule g is caps[g/64][n], where n counts the tags below g in its word.
// Only words that ever held a tag have an entry, and an entry may be
// empty. A data write clears whole words of tags at once, and the
// revoker's sweep does one lookup per non-empty word.
type Memory struct {
	size uint32
	// chunks holds where each chunk's bytes live: slot k of shared, or,
	// with privChunk set, slot k of priv. Slot 0 of shared is all zero.
	chunks  []uint32
	shared  []byte                      // read-only slots, shared with other memories
	priv    []byte                      // this memory's written chunks; grows by doubling
	tags    Bitmap                      // granule index -> tag bit
	caps    map[uint32][]cap.Capability // tag word -> its tagged granules' capabilities
	revoked Bitmap                      // granule index -> revocation bit
	windows []window                    // MMIO windows, above size

	// onLoadFilter, when set, observes the load filter clearing the tag
	// of a revoked capability — the earliest observable evidence of a
	// dangling pointer, recorded by the flight recorder.
	onLoadFilter func(c cap.Capability)
}

// SetLoadFilterHook installs (or clears, with nil) the load-filter
// observer, called with the capability (pre-untagging) whenever the load
// filter clears a tag.
func (m *Memory) SetLoadFilterHook(hook func(c cap.Capability)) {
	m.onLoadFilter = hook
}

// New returns zeroed SRAM of the given size, which must be a multiple of
// the granule size.
func New(size uint32) *Memory {
	if size%Granule != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of %d", size, Granule))
	}
	n := size / Granule
	return &Memory{
		size:    size,
		chunks:  make([]uint32, (size+chunkBytes-1)/chunkBytes),
		shared:  zeroChunk[:],
		tags:    NewBitmap(n),
		caps:    make(map[uint32][]cap.Capability),
		revoked: NewBitmap(n),
	}
}

// Size returns the SRAM size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Granules returns the number of granules in SRAM.
func (m *Memory) Granules() uint32 { return m.size / Granule }

func (m *Memory) granule(addr uint32) uint32 { return addr / Granule }

// inSRAM reports whether [addr, addr+n) lies entirely in SRAM.
func (m *Memory) inSRAM(addr, n uint32) bool {
	return uint64(addr)+uint64(n) <= uint64(m.size)
}

// clearTags drops capability tags for every granule overlapping
// [addr, addr+n). Any data write does this: partially overwriting a
// capability destroys it.
func (m *Memory) clearTags(addr, n uint32) {
	if n == 0 {
		return
	}
	m.tags.rangeWords(m.granule(addr), m.granule(addr+n-1), m.untag)
}

// capAt returns the capability stored in granule g, if g is tagged.
func (m *Memory) capAt(g uint32) (cap.Capability, bool) {
	word, bit := m.tags[g/64], uint64(1)<<(g%64)
	if word&bit == 0 {
		return cap.Capability{}, false
	}
	return m.caps[g/64][bits.OnesCount64(word&(bit-1))], true
}

// setCap tags granule g and stores c in it.
func (m *Memory) setCap(g uint32, c cap.Capability) {
	w, bit := g/64, uint64(1)<<(g%64)
	word := m.tags[w]
	i := bits.OnesCount64(word & (bit - 1))
	if word&bit != 0 {
		m.caps[w][i] = c
		return
	}
	m.caps[w] = slices.Insert(m.caps[w], i, c)
	m.tags[w] = word | bit
}

// untag clears the tags of word w that are set in mask and drops their
// capabilities.
func (m *Memory) untag(w uint32, mask uint64) {
	word := m.tags[w]
	drop := word & mask
	if drop == 0 {
		return
	}
	cs := m.caps[w]
	if drop == word {
		m.caps[w] = cs[:0]
	} else {
		keep := cs[:0]
		for i, rest := 0, word; rest != 0; i, rest = i+1, rest&(rest-1) {
			if rest&-rest&drop == 0 {
				keep = append(keep, cs[i])
			}
		}
		m.caps[w] = keep
	}
	m.tags[w] = word &^ drop
}

// LoadBytes reads n bytes at the authority's cursor into a fresh slice,
// allocated once the access checks pass.
func (m *Memory) LoadBytes(auth cap.Capability, n uint32) ([]byte, error) {
	if err := m.checkLoad(auth, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	return out, m.LoadInto(auth, out)
}

// LoadInto reads len(dst) bytes at the authority's cursor into dst, the
// caller's buffer; on an error it leaves dst untouched.
func (m *Memory) LoadInto(auth cap.Capability, dst []byte) error {
	if err := m.checkLoad(auth, uint32(len(dst))); err != nil {
		return err
	}
	m.read(dst, auth.Address())
	return nil
}

// checkLoad checks a load of n bytes of SRAM at the authority's cursor.
func (m *Memory) checkLoad(auth cap.Capability, n uint32) error {
	if err := auth.CheckAccess(cap.PermLoad, n); err != nil {
		return err
	}
	if !m.inSRAM(auth.Address(), n) {
		return cap.ErrBoundsViolation
	}
	return nil
}

// StoreBytes writes b at the authority's cursor, clearing any tags it
// overlaps.
func (m *Memory) StoreBytes(auth cap.Capability, b []byte) error {
	n := uint32(len(b))
	if err := auth.CheckAccess(cap.PermStore, n); err != nil {
		return err
	}
	addr := auth.Address()
	if !m.inSRAM(addr, n) {
		return cap.ErrBoundsViolation
	}
	m.write(addr, b)
	m.clearTags(addr, n)
	return nil
}

// Load32 reads a little-endian 32-bit word at the authority's cursor. It
// is the access primitive for futex words and device registers; addresses
// in an MMIO window are routed to the device.
func (m *Memory) Load32(auth cap.Capability) (uint32, error) {
	if err := auth.CheckAccess(cap.PermLoad, 4); err != nil {
		return 0, err
	}
	addr := auth.Address()
	if w := m.findWindow(addr, 4); w != nil {
		return w.dev.LoadWord(addr - w.base), nil
	}
	if !m.inSRAM(addr, 4) {
		return 0, cap.ErrBoundsViolation
	}
	return m.load32(addr), nil
}

// Store32 writes a little-endian 32-bit word at the authority's cursor.
func (m *Memory) Store32(auth cap.Capability, v uint32) error {
	if err := auth.CheckAccess(cap.PermStore, 4); err != nil {
		return err
	}
	addr := auth.Address()
	if w := m.findWindow(addr, 4); w != nil {
		w.dev.StoreWord(addr-w.base, v)
		return nil
	}
	if !m.inSRAM(addr, 4) {
		return cap.ErrBoundsViolation
	}
	m.store32(addr, v)
	m.clearTags(addr, 4)
	return nil
}

// LoadCap loads the capability stored at the authority's cursor, which must
// be granule-aligned. The load path applies, in order: the MC check and
// deep attenuation (cap.Attenuate), then the load filter — if the
// revocation bit of the *base* of the loaded capability is set, the tag is
// cleared (§2.1). An authority carrying cap.PermUser0 (the allocator's heap
// root) bypasses the load filter, modelling the allocator's privileged
// access to freed memory (§3.1.3).
func (m *Memory) LoadCap(auth cap.Capability) (cap.Capability, error) {
	if err := auth.CheckAccess(cap.PermLoad, Granule); err != nil {
		return cap.Null(), err
	}
	addr := auth.Address()
	if addr%Granule != 0 {
		return cap.Null(), cap.ErrBoundsViolation
	}
	if !m.inSRAM(addr, Granule) {
		return cap.Null(), cap.ErrBoundsViolation
	}
	loaded, ok := m.capAt(m.granule(addr))
	if !ok {
		// Untagged data read as a capability: yields an untagged value
		// whose cursor is the stored word.
		loaded = cap.New(0, 0, m.load32(addr), 0).ClearTag()
	}
	loaded = cap.Attenuate(loaded, auth)
	if loaded.Valid() && m.isRevoked(loaded.Base()) && !auth.Perms().Has(cap.PermUser0) {
		if m.onLoadFilter != nil {
			m.onLoadFilter(loaded)
		}
		loaded = loaded.ClearTag()
	}
	return loaded, nil
}

// StoreCap stores a capability at the authority's cursor, which must be
// granule-aligned. Storing a local capability requires PermStoreLocal on
// the authority (§2.1). The raw bytes of the granule are set to the
// capability's cursor so that subsequent data reads see the address.
func (m *Memory) StoreCap(auth cap.Capability, value cap.Capability) error {
	if err := cap.CheckStoreCap(value, auth); err != nil {
		return err
	}
	addr := auth.Address()
	if addr%Granule != 0 {
		return cap.ErrBoundsViolation
	}
	if !m.inSRAM(addr, Granule) {
		return cap.ErrBoundsViolation
	}
	g := m.granule(addr)
	c := m.writable(addr / chunkBytes)[addr%chunkBytes:]
	put32(c, value.Address())
	put32(c[4:], 0)
	if value.Valid() {
		m.setCap(g, value)
	} else {
		m.untag(g/64, 1<<(g%64))
	}
	return nil
}

// Zero clears n bytes at the authority's cursor, dropping tags. It backs
// the allocator's free-time erasure and the switcher's stack zeroing.
func (m *Memory) Zero(auth cap.Capability, n uint32) error {
	if err := auth.CheckAccess(cap.PermStore, n); err != nil {
		return err
	}
	addr := auth.Address()
	if !m.inSRAM(addr, n) {
		return cap.ErrBoundsViolation
	}
	m.zero(addr, n)
	m.clearTags(addr, n)
	return nil
}

// TagAt reports whether the granule containing addr holds a valid
// capability. It exists for tests and debugging tools.
func (m *Memory) TagAt(addr uint32) bool { return m.tags.get(m.granule(addr)) }

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
