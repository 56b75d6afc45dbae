package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// The memory oracle: a byte-coded program of memory operations runs
// against real Memories and against refModel, a reference written the
// obvious way (a byte slice, a capability slot per granule, a per-granule
// revocation flag), and after every operation the two must agree on every
// observable: the tag of each granule, the capability each granule loads
// through a user authority and through an allocator (PermUser0) authority,
// the data bytes, and Equal between every pair of live copies.
// TestPropMemoryMatchesOracle feeds it seeded random programs and
// FuzzMemoryOracle lets the fuzzer write them.

// oracleSize is the SRAM under test: 512 granules, eight tag words, so a
// 1 KiB range covers two whole words and can start and end mid-word.
const oracleSize = 0x1000

// oracleMaxCopies bounds the memories alive at once (the original plus
// clones and restored snapshots).
const oracleMaxCopies = 3

// refModel is the oracle for one Memory.
type refModel struct {
	data    []byte
	caps    []cap.Capability // granule -> stored capability; untagged when none
	revoked []bool           // granule -> revocation bit
}

func newRef(size uint32) *refModel {
	return &refModel{
		data:    make([]byte, size),
		caps:    make([]cap.Capability, size/Granule),
		revoked: make([]bool, size/Granule),
	}
}

func (r *refModel) clone() *refModel {
	return &refModel{
		data:    bytes.Clone(r.data),
		caps:    slices.Clone(r.caps),
		revoked: slices.Clone(r.revoked),
	}
}

func (r *refModel) equal(o *refModel) bool {
	return bytes.Equal(r.data, o.data) && slices.Equal(r.caps, o.caps) &&
		slices.Equal(r.revoked, o.revoked)
}

// tagged reports whether granule g holds a capability.
func (r *refModel) tagged(g uint32) bool { return r.caps[g].Valid() }

// dropTags untags every granule overlapping [addr, addr+n).
func (r *refModel) dropTags(addr, n uint32) {
	if n == 0 {
		return
	}
	for g := addr / Granule; g <= (addr+n-1)/Granule; g++ {
		r.caps[g] = cap.Capability{}
	}
}

func (r *refModel) storeBytes(addr uint32, b []byte) {
	copy(r.data[addr:], b)
	r.dropTags(addr, uint32(len(b)))
}

func (r *refModel) zero(addr, n uint32) {
	clear(r.data[addr : addr+n])
	r.dropTags(addr, n)
}

func (r *refModel) store32(addr, v uint32) {
	put32(r.data[addr:], v)
	r.dropTags(addr, 4)
}

func (r *refModel) storeCap(addr uint32, c cap.Capability) {
	put32(r.data[addr:], c.Address())
	put32(r.data[addr+4:], 0)
	if c.Valid() {
		r.caps[addr/Granule] = c
	} else {
		r.caps[addr/Granule] = cap.Capability{}
	}
}

// setRevoked sets or clears the revocation bits of [addr, addr+n); like
// Revoke and ClearRevoked it ignores empty and out-of-SRAM ranges.
func (r *refModel) setRevoked(addr, n uint32, v bool) {
	if n == 0 || uint64(addr)+uint64(n) > uint64(len(r.data)) {
		return
	}
	for a := addr; a < addr+n; a++ {
		r.revoked[a/Granule] = v
	}
}

func (r *refModel) isRevoked(addr uint32) bool {
	return addr < uint32(len(r.data)) && r.revoked[addr/Granule]
}

// sweep untags every granule in [start, start+count) that holds a
// capability with a revoked base, and returns where the sweep stopped.
func (r *refModel) sweep(start, count uint32) uint32 {
	end := uint64(start) + uint64(count)
	if max := uint64(len(r.revoked)); end > max {
		end = max
	}
	for g := uint64(start); g < end; g++ {
		if c := r.caps[g]; c.Valid() && r.isRevoked(c.Base()) {
			r.caps[g] = cap.Capability{}
		}
	}
	return uint32(end)
}

// loadCap is what LoadCap through auth must return at a granule-aligned
// addr: the stored capability (or the untagged word), deep-attenuated,
// then load-filtered unless auth carries PermUser0.
func (r *refModel) loadCap(addr uint32, auth cap.Capability) cap.Capability {
	c := r.caps[addr/Granule]
	if !c.Valid() {
		c = cap.New(0, 0, le32(r.data[addr:]), 0).ClearTag()
	}
	c = cap.Attenuate(c, auth)
	if c.Valid() && r.isRevoked(c.Base()) && !auth.Perms().Has(cap.PermUser0) {
		c = c.ClearTag()
	}
	return c
}

// opReader decodes an oracle program; past its end every read is zero.
type opReader struct{ b []byte }

func (r *opReader) more() bool { return len(r.b) > 0 }

func (r *opReader) u8() uint32 {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return uint32(v)
}

func (r *opReader) u16() uint32 { return r.u8() | r.u8()<<8 }

func (r *opReader) u32() uint32 { return r.u16() | r.u16()<<16 }

// oracleCopy is one live Memory and its reference.
type oracleCopy struct {
	m   *Memory
	ref *refModel
}

// oracleSnap is a Snapshot and the reference state it was taken from.
type oracleSnap struct {
	s   *Snapshot
	ref *refModel
}

// oracle runs one program.
type oracle struct {
	t      testing.TB
	prog   *opReader
	copies []oracleCopy
	snaps  []oracleSnap
	step   int
}

var (
	oracleRoot  = cap.Root(0, oracleSize)                    // carries PermUser0: the allocator's view
	oracleUser  = oracleRoot.WithoutPermsMust(cap.PermUser0) // an ordinary compartment's view
	oraclePerms = []cap.Perm{cap.PermData, cap.PermStack, cap.PermROData}
)

// runOracle interprets prog, at most maxOps operations, and fails t on
// the first disagreement with the reference.
func runOracle(t testing.TB, prog []byte, maxOps int) {
	o := &oracle{t: t, prog: &opReader{b: prog},
		copies: []oracleCopy{{m: New(oracleSize), ref: newRef(oracleSize)}}}
	for ; o.step < maxOps && o.prog.more(); o.step++ {
		o.exec()
		o.checkPairs()
	}
	for i := range o.copies {
		o.check(i)
	}
}

// span decodes a byte range inside SRAM: an address and a length of up
// to 1 KiB, clipped to the end of SRAM.
func (o *oracle) span() (addr, n uint32) {
	addr = o.prog.u16() % oracleSize
	n = o.prog.u16() % 1025
	if addr+n > oracleSize {
		n = oracleSize - addr
	}
	return addr, n
}

// capValue decodes a capability to store: tagged with a base anywhere in
// or just above SRAM, or (when tagged is false) an untagged value.
func (o *oracle) capValue(tagged bool) cap.Capability {
	base := (o.prog.u16() % (oracleSize + 0x100)) &^ 7
	length := o.prog.u8() * 8
	c := cap.New(base, base+length, base+o.prog.u8()%(length+1), oraclePerms[o.prog.u8()%uint32(len(oraclePerms))])
	if !tagged {
		c = c.ClearTag()
	}
	return c
}

// pick decodes the index of a live copy.
func (o *oracle) pick() int { return int(o.prog.u8()) % len(o.copies) }

// place adds a new copy, replacing a decoded slot when all are in use,
// and returns its index.
func (o *oracle) place(c oracleCopy) int {
	if len(o.copies) < oracleMaxCopies {
		o.copies = append(o.copies, c)
		return len(o.copies) - 1
	}
	i := o.pick()
	o.copies[i] = c
	return i
}

func (o *oracle) must(err error, what string) {
	if err != nil {
		o.t.Fatalf("step %d: %s: %v", o.step, what, err)
	}
}

// exec decodes and runs one operation on the real memory and the
// reference, then checks the copy it touched.
func (o *oracle) exec() {
	op := o.prog.u8() % 13
	i := o.pick()
	c := o.copies[i]
	switch op {
	case 0: // StoreBytes over up to 1 KiB
		o.storeBytes(c)
	case 1: // Zero over up to 1 KiB
		addr, n := o.span()
		o.must(c.m.Zero(oracleRoot.WithAddress(addr), n), "Zero")
		c.ref.zero(addr, n)
	case 2: // Store32 at any byte address
		addr, v := o.prog.u16()%(oracleSize-3), o.prog.u32()
		o.must(c.m.Store32(oracleRoot.WithAddress(addr), v), "Store32")
		c.ref.store32(addr, v)
	case 3, 4: // StoreCap of a tagged capability or an untagged value
		addr := (o.prog.u16() % oracleSize) &^ 7
		v := o.capValue(op == 3)
		o.must(c.m.StoreCap(oracleRoot.WithAddress(addr), v), "StoreCap")
		c.ref.storeCap(addr, v)
	case 5: // overwrite a tagged slot with another capability or an untagged value
		var slots []uint32
		for g := range c.ref.caps {
			if c.ref.tagged(uint32(g)) {
				slots = append(slots, uint32(g))
			}
		}
		if len(slots) == 0 {
			break
		}
		g := slots[int(o.prog.u16())%len(slots)]
		v := o.capValue(o.prog.u8()%2 == 0)
		o.must(c.m.StoreCap(oracleRoot.WithAddress(g*Granule), v), "StoreCap over a tag")
		c.ref.storeCap(g*Granule, v)
	case 6, 7: // Revoke or ClearRevoked, sometimes reaching past SRAM
		addr := o.prog.u16() % oracleSize
		n := o.prog.u16() % 1100
		if op == 6 {
			c.m.Revoke(addr, n)
		} else {
			c.m.ClearRevoked(addr, n)
		}
		c.ref.setRevoked(addr, n, op == 6)
	case 8: // SweepGranules over a window that may start and end mid-word
		g := uint32(oracleSize / Granule)
		start, count := o.prog.u16()%(g+8), o.prog.u16()%(2*g)
		if got, want := c.m.SweepGranules(start, count), c.ref.sweep(start, count); got != want {
			o.t.Fatalf("step %d: SweepGranules(%d, %d) = %d, want %d", o.step, start, count, got, want)
		}
	case 9: // Clone
		i = o.place(oracleCopy{m: c.m.Clone(), ref: c.ref.clone()})
	case 10: // Snapshot, restored by a later operation
		o.snaps = append(o.snaps, oracleSnap{s: c.m.Snapshot(), ref: c.ref.clone()})
		if len(o.snaps) > oracleMaxCopies {
			o.snaps = o.snaps[1:]
		}
	case 11: // Restore a snapshot taken earlier
		if len(o.snaps) == 0 {
			break
		}
		s := o.snaps[int(o.prog.u8())%len(o.snaps)]
		i = o.place(oracleCopy{m: s.s.Restore(), ref: s.ref.clone()})
	case 12: // Fork: restore one snapshot into two live copies, then write each
		if len(o.snaps) == 0 {
			break
		}
		s := o.snaps[int(o.prog.u8())%len(o.snaps)]
		a := o.place(oracleCopy{m: s.s.Restore(), ref: s.ref.clone()})
		i = o.place(oracleCopy{m: s.s.Restore(), ref: s.ref.clone()})
		if i == a {
			i = (a + 1) % len(o.copies)
			o.copies[i] = oracleCopy{m: s.s.Restore(), ref: s.ref.clone()}
		}
		o.storeBytes(o.copies[a])
		o.storeBytes(o.copies[i])
		o.check(a)
	}
	o.check(i)
}

// storeBytes decodes a span and a fill seed and stores the fill there.
func (o *oracle) storeBytes(c oracleCopy) {
	addr, n := o.span()
	b := make([]byte, n)
	x := o.prog.u8()*0x9E3779B9 | 1 // xorshift fill, seeded by the program
	for k := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[k] = byte(x)
	}
	o.must(c.m.StoreBytes(oracleRoot.WithAddress(addr), b), "StoreBytes")
	c.ref.storeBytes(addr, b)
}

// check compares every observable of copy i with its reference.
func (o *oracle) check(i int) {
	c := o.copies[i]
	for g := uint32(0); g < oracleSize/Granule; g++ {
		addr := g * Granule
		if tagged := c.ref.tagged(g); c.m.TagAt(addr) != tagged {
			o.t.Fatalf("step %d copy %d: TagAt(%#x) = %v, want %v", o.step, i, addr, !tagged, tagged)
		}
		for _, auth := range []cap.Capability{oracleUser, oracleRoot} {
			got, err := c.m.LoadCap(auth.WithAddress(addr))
			o.must(err, "LoadCap")
			if want := c.ref.loadCap(addr, auth); got != want {
				o.t.Fatalf("step %d copy %d: LoadCap(%#x) through %v = %v, want %v",
					o.step, i, addr, auth.Perms(), got, want)
			}
		}
	}
	got, err := c.m.LoadBytes(oracleRoot, oracleSize)
	o.must(err, "LoadBytes")
	if !bytes.Equal(got, c.ref.data) {
		o.t.Fatalf("step %d copy %d: LoadBytes differs from the reference", o.step, i)
	}
}

// checkPairs compares Equal on every pair of live copies with the
// references; a store shared between two memories shows up here.
func (o *oracle) checkPairs() {
	for i := range o.copies {
		for j := i + 1; j < len(o.copies); j++ {
			a, b := o.copies[i], o.copies[j]
			if got, want := a.m.Equal(b.m), a.ref.equal(b.ref); got != want {
				o.t.Fatalf("step %d: copies %d and %d Equal = %v, want %v", o.step, i, j, got, want)
			}
		}
	}
}

// TestPropMemoryMatchesOracle runs seeded random programs through the
// oracle.
func TestPropMemoryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		prog := make([]byte, 2400)
		rand.New(rand.NewSource(seed)).Read(prog)
		runOracle(t, prog, 200)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWindowsMatchOracle sweeps windows that start and end inside
// densely tagged words, where every third capability has a revoked base:
// a sweep that miscounts the tags below its window checks the wrong
// capability and disagrees with the reference.
func TestSweepWindowsMatchOracle(t *testing.T) {
	for start := uint32(60); start < 132; start++ {
		for _, count := range []uint32{1, 5, 30, 70} {
			o := &oracle{t: t, copies: []oracleCopy{{m: New(oracleSize), ref: newRef(oracleSize)}}}
			c := o.copies[0]
			for g := uint32(56); g < 136; g++ {
				base := 0x800 + g%3*8
				v := cap.New(base, base+8, base, cap.PermData)
				o.must(c.m.StoreCap(oracleRoot.WithAddress(g*Granule), v), "StoreCap")
				c.ref.storeCap(g*Granule, v)
			}
			c.m.Revoke(0x800, 8)
			c.ref.setRevoked(0x800, 8, true)
			if got, want := c.m.SweepGranules(start, count), c.ref.sweep(start, count); got != want {
				t.Fatalf("SweepGranules(%d, %d) = %d, want %d", start, count, got, want)
			}
			o.check(0)
		}
	}
}

// FuzzMemoryOracle lets the fuzzer write oracle programs. The seed corpus
// is under testdata/fuzz/FuzzMemoryOracle.
func FuzzMemoryOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		runOracle(t, prog, 32)
	})
}
