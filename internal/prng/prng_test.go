package prng

import "testing"

// The streams are pinned: every committed digest depends on them, so a
// change here must fail loudly rather than move the digests.
func TestStreamsPinned(t *testing.T) {
	r := NewSplitMix(1, 0)
	for i, want := range []uint64{0x382ff84cb27281e9, 0x6d1db36ccba982d2, 0xb4a0472e578069ae} {
		if got := r.Next(); got != want {
			t.Errorf("NewSplitMix(1, 0) value %d = %#x, want %#x", i, got, want)
		}
	}
	r = NewSplitMix(7, 5<<32)
	if got, want := r.Below(1000), uint64(0x99b20c6c40255343%1000); got != want {
		t.Errorf("NewSplitMix(7, 5<<32).Below(1000) = %d, want %d", got, want)
	}
	if got := r.Below(0); got != 0 {
		t.Errorf("Below(0) = %d, want 0", got)
	}
	x := XorShift(1)
	for i, want := range []uint64{0x40822041, 0x100041060c011441, 0x9b1e842f6e862629} {
		if got := x.Next(); got != want || uint64(x) != want {
			t.Errorf("XorShift(1) step %d = %#x (state %#x), want %#x", i, got, uint64(x), want)
		}
	}
}
