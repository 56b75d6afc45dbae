package cap

import "math"

// Compressed-bounds model.
//
// CHERIoT capabilities are 64 bits plus a tag: there is no room for full
// 32-bit base and top fields, so the ISA uses a floating-point-style
// compressed encoding (9-bit mantissas and a small exponent in the real
// hardware). The consequence software must live with is that *not every
// [base, top) pair is representable*: large regions must be aligned to,
// and sized in multiples of, 2^E for an exponent that grows with the
// length. The RTOS allocator rounds every allocation accordingly, which
// this package exposes via RepresentableAlignment and friends.
//
// The model here keeps the real encoding's granularity rules (mantissaBits
// of precision, power-of-two alignment) without reproducing the exact bit
// layout of the hardware format.

// mantissaBits is the bounds precision: lengths are encoded with this
// many significant bits (the CHERIoT format uses 9-bit mantissas).
const mantissaBits = 9

// boundsExponent returns the encoding exponent E for a region of the
// given length: lengths below 2^mantissaBits are exact (E = 0); beyond
// that, each doubling costs one exponent step. The bound is computed in
// 64 bits: in 32 it wraps to 0 at E = 23, and a length above 2^31 would
// never stop the loop.
func boundsExponent(length uint32) uint32 {
	e := uint32(0)
	for uint64(length) > uint64(1)<<mantissaBits<<e {
		e++
	}
	return e
}

// RepresentableAlignment returns the alignment (a power of two) that the
// base and length of a region of the given length must have for its
// bounds to be exactly representable. Small regions (< 512 B) need only
// the 8-byte granule; a 64 KiB buffer needs 128-byte alignment; a 1 MiB
// region needs 2 KiB.
func RepresentableAlignment(length uint32) uint32 {
	a := uint32(1) << boundsExponent(length)
	if a < GranuleSize {
		return GranuleSize
	}
	return a
}

// RepresentableLength rounds a length up to the next representable value
// at its own alignment (the fixed point of rounding: the result is a
// multiple of RepresentableAlignment(result)). It returns 0 when no
// representable length at least as large fits in 32 bits.
func RepresentableLength(length uint32) uint32 {
	for {
		a := uint64(RepresentableAlignment(length))
		rounded := (uint64(length) + a - 1) &^ (a - 1)
		if rounded > math.MaxUint32 {
			return 0
		}
		if rounded == uint64(length) {
			return length
		}
		length = uint32(rounded)
	}
}

// BoundsRepresentable reports whether [base, base+length) can be encoded
// exactly.
func BoundsRepresentable(base, length uint32) bool {
	a := RepresentableAlignment(length)
	return base%a == 0 && length%a == 0
}

// SetBoundsExact is SetBounds plus the encoding check: deriving bounds
// that the compressed format cannot represent clears the tag, exactly as
// unrepresentable requests fail on hardware. Kernel allocators use it to
// guarantee the capabilities they hand out round-trip through memory.
func (c Capability) SetBoundsExact(length uint32) (Capability, error) {
	d, err := c.SetBounds(length)
	if err != nil {
		return d, err
	}
	if !BoundsRepresentable(d.Base(), d.Length()) {
		return d.ClearTag(), ErrBoundsViolation
	}
	return d, nil
}
