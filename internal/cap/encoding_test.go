package cap

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRepresentableAlignment(t *testing.T) {
	cases := []struct {
		length uint32
		align  uint32
	}{
		{1, 8}, {8, 8}, {100, 8}, {512, 8}, // small: granule floor
		{513, 8}, {1024, 8}, {4096, 8}, // still under the 8-byte floor
		{8192, 16},
		{65536, 128},
		{114688, 256}, // Fig. 6b's largest size
		{1 << 20, 2048},
	}
	for _, tc := range cases {
		if got := RepresentableAlignment(tc.length); got != tc.align {
			t.Errorf("RepresentableAlignment(%d) = %d, want %d", tc.length, got, tc.align)
		}
	}
}

func TestRepresentableLength(t *testing.T) {
	// The granule floor dominates small alignments: 513 rounds to the
	// next 8-byte multiple, 65537 to the next 256-byte one.
	for _, tc := range []struct{ in, want uint32 }{
		{1, 8}, {512, 512}, {513, 520}, {65537, 65792},
	} {
		if got := RepresentableLength(tc.in); got != tc.want {
			t.Errorf("RepresentableLength(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRepresentableAboveTwoGiB: lengths above 2^31 round in bounded
// time, to a representable length, or to 0 when none fits in 32 bits.
// The exponent's bound once wrapped to 0 in 32 bits at E = 23, so these
// lengths never returned; each runs on a goroutine with a deadline, and
// a hang fails the test instead of the suite.
func TestRepresentableAboveTwoGiB(t *testing.T) {
	for _, tc := range []struct{ n, align, length uint32 }{
		{1 << 31, 1 << 22, 1 << 31},
		{1<<31 + 1, 1 << 23, 1<<31 + 1<<23},
		{0xfffffff9, 1 << 23, 0},
		{0xffffffff, 1 << 23, 0},
	} {
		done := make(chan [2]uint32, 1)
		go func() { done <- [2]uint32{RepresentableAlignment(tc.n), RepresentableLength(tc.n)} }()
		select {
		case got := <-done:
			if got != [2]uint32{tc.align, tc.length} {
				t.Errorf("RepresentableAlignment, RepresentableLength(%#x) = %#x, %#x, want %#x, %#x",
					tc.n, got[0], got[1], tc.align, tc.length)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("RepresentableAlignment or RepresentableLength(%#x) did not return within 2 s", tc.n)
		}
	}
}

// TestPropRepresentableLengthIsFixedPoint: the rounded length is itself
// representable, never smaller, and within one alignment step.
func TestPropRepresentableLengthIsFixedPoint(t *testing.T) {
	f := func(n uint32) bool {
		n %= 1 << 24
		if n == 0 {
			n = 1
		}
		r := RepresentableLength(n)
		if r < n {
			return false
		}
		a := RepresentableAlignment(r)
		if r%a != 0 {
			return false
		}
		return r-n < 2*a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSetBoundsExact(t *testing.T) {
	r := Root(0, 1<<24)
	// Aligned large bounds: fine.
	c, err := r.WithAddress(0x20000).SetBoundsExact(0x10000)
	if err != nil || !c.Valid() {
		t.Fatalf("aligned exact bounds: %v", err)
	}
	// Misaligned base for a large region: untagged.
	if got, err := r.WithAddress(0x20008).SetBoundsExact(0x10000); err == nil || got.Valid() {
		t.Fatal("unrepresentable bounds accepted")
	}
	// Small regions are always fine at granule alignment.
	if _, err := r.WithAddress(0x20008).SetBoundsExact(64); err != nil {
		t.Fatalf("small bounds: %v", err)
	}
}
