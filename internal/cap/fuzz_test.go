package cap

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCapBounds fuzzes the bounds encoding and the derivation rules: the
// observational-correctness properties the CHERIoT-Ibex verification
// checks, over every uint32 length. For the input's length n and base:
//
//   - RepresentableAlignment(n) is a power of two of at least the granule,
//     and never shrinks as the length grows;
//   - RepresentableLength(n) is a fixed point at least n and a multiple of
//     its own alignment, or 0 when no representable length at least n
//     fits in 32 bits;
//   - BoundsRepresentable holds at that length on a base at its alignment;
//   - SetBoundsExact(n) at base derives exactly [base, base+n) and clears
//     the tag exactly when those bounds are unrepresentable.
//
// Then ops, five bytes a step (an operation and a little-endian argument),
// drive a capability over [base, base+n) with the input's permissions
// through derive, attenuate, seal and unseal steps. No step may re-tag an
// untagged capability, and no tagged result may hold a permission or a
// byte outside the progenitor's. The committed corpus adds a length just
// above 2^31 and the largest length, both of which once hung the encoder.
func FuzzCapBounds(f *testing.F) {
	f.Add(uint32(1), uint32(0), uint16(PermMax), []byte{})
	f.Add(uint32(0x10000), uint32(0x20008), uint16(PermLoad|PermStore), []byte{2, 0, 0, 1, 0})
	auth := New(uint32(TypeToken), uint32(TypeToken)+1, uint32(TypeToken), PermSeal|PermUnseal)
	// below is arg reduced to [0, c.Length()+k), in 64 bits: a length of
	// up to 2^32-1 leaves no room for the +k in 32.
	below := func(arg uint32, c Capability, k uint64) uint32 {
		return uint32(uint64(arg) % (uint64(c.Length()) + k))
	}
	step := func(c Capability, op byte, arg uint32) Capability {
		var d Capability
		switch op % 10 {
		case 0:
			d = c.WithAddress(c.Base() + below(arg, c, 1))
		case 1:
			d, _ = c.SetBounds(below(arg, c, 2))
		case 2:
			d, _ = c.SetBoundsExact(below(arg, c, 2))
		case 3:
			d, _ = c.AndPerms(Perm(arg))
		case 4:
			d, _ = c.ReadOnly()
		case 5:
			d, _ = c.NoCapture()
		case 6:
			d = Attenuate(c, New(0, math.MaxUint32, 0, Perm(arg)&PermMax))
		case 7:
			d, _ = c.Seal(auth)
		case 8:
			d, _ = c.Unseal(auth)
		case 9:
			if d, _ = c.SealEntry(OType(arg % 8)); d.Valid() {
				d, _, _ = d.UnsealEntry()
			}
		}
		return d
	}
	f.Fuzz(func(t *testing.T, n, base uint32, perms uint16, ops []byte) {
		a := RepresentableAlignment(n)
		if a < GranuleSize || a&(a-1) != 0 {
			t.Fatalf("RepresentableAlignment(%#x) = %#x: not a power of two of at least %d", n, a, GranuleSize)
		}
		if n < math.MaxUint32 && RepresentableAlignment(n+1) < a {
			t.Fatalf("RepresentableAlignment(%#x) = %#x shrinks to %#x one byte on", n, a, RepresentableAlignment(n+1))
		}
		switch r := RepresentableLength(n); {
		case r == 0 && n > 0:
			// Every longer length is aligned at least as coarsely, so the
			// next multiple of a at or above n is the least candidate.
			if uint64(n)+uint64(a)-1 <= math.MaxUint32 {
				t.Fatalf("RepresentableLength(%#x) = 0, but %#x rounds up within 32 bits", n, n)
			}
		case r < n || RepresentableLength(r) != r || r%RepresentableAlignment(r) != 0:
			t.Fatalf("RepresentableLength(%#x) = %#x: not a representable fixed point at least n", n, r)
		default:
			if ra := RepresentableAlignment(r); !BoundsRepresentable(base&^(ra-1), r) {
				t.Fatalf("BoundsRepresentable(%#x, %#x) is false at the length's own alignment", base&^(ra-1), r)
			}
		}

		exact, err := Root(0, math.MaxUint32).WithAddress(base).SetBoundsExact(n)
		if uint64(base)+uint64(n) <= math.MaxUint32 {
			if exact.Base() != base || exact.Length() != n {
				t.Fatalf("SetBoundsExact(%#x) at %#x derived [%#x, +%#x)", n, base, exact.Base(), exact.Length())
			}
			if rep := BoundsRepresentable(base, n); exact.Valid() != rep || (err == nil) != rep {
				t.Fatalf("SetBoundsExact(%#x) at %#x: tagged %v, err %v; representable %v", n, base, exact.Valid(), err, rep)
			}
		} else if exact.Valid() {
			t.Fatalf("SetBoundsExact(%#x) at %#x past the root's top kept its tag", n, base)
		}

		top := base + min(n, math.MaxUint32-base)
		orig := New(base, top, base, Perm(perms)&PermMax)
		c := orig
		for ; len(ops) >= 5; ops = ops[5:] {
			op, arg := ops[0], binary.LittleEndian.Uint32(ops[1:5])
			if step(c.ClearTag(), op, arg).Valid() {
				t.Fatalf("op %d re-tagged an untagged %v", op%10, c)
			}
			d := step(c, op, arg)
			if !d.Valid() {
				continue
			}
			if d.Base() < orig.Base() || d.Top() > orig.Top() || !d.Perms().IsSubsetOf(orig.Perms()) {
				t.Fatalf("op %d derived %v from %v: wider than the progenitor %v", op%10, d, c, orig)
			}
			c = d
		}
	})
}
