package mem

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// Word-edge cases for SetRange/ClearRange: ranges within one word, ending
// exactly on bit 63, crossing word boundaries, and spanning whole words.
// Snapshot correctness depends on exact bitmap copies, so the range ops
// the revocation path uses are pinned down here bit by bit.
func TestBitmapRangeWordEdges(t *testing.T) {
	cases := []struct{ first, last uint32 }{
		{0, 0},     // single bit at word start
		{63, 63},   // single bit at word end
		{0, 63},    // exactly one full word
		{5, 20},    // inside one word
		{60, 67},   // crossing a word boundary
		{63, 64},   // the boundary pair
		{64, 127},  // exactly the second word
		{1, 190},   // spanning three words with partial ends
		{128, 128}, // word-aligned single bit in a later word
	}
	for _, tc := range cases {
		b := NewBitmap(256)
		b.SetRange(tc.first, tc.last)
		for i := uint32(0); i < 256; i++ {
			want := i >= tc.first && i <= tc.last
			if b.Get(i) != want {
				t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", tc.first, tc.last, i, b.Get(i), want)
			}
		}
		// Clearing the same range must return to all-zero.
		b.ClearRange(tc.first, tc.last)
		for i := uint32(0); i < 256; i++ {
			if b.Get(i) {
				t.Fatalf("ClearRange(%d,%d): bit %d still set", tc.first, tc.last, i)
			}
		}
		// Clearing a sub-range out of a full bitmap must clear exactly it.
		b.SetRange(0, 255)
		b.ClearRange(tc.first, tc.last)
		for i := uint32(0); i < 256; i++ {
			want := i < tc.first || i > tc.last
			if b.Get(i) != want {
				t.Fatalf("ClearRange(%d,%d) of full: bit %d = %v, want %v", tc.first, tc.last, i, b.Get(i), want)
			}
		}
	}
}

func TestBitmapCloneIndependence(t *testing.T) {
	b := NewBitmap(256)
	b.SetRange(10, 70)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(100)
	if b.Get(100) {
		t.Fatal("mutating the clone leaked into the original")
	}
	b.Clear(64)
	if !c.Get(64) {
		t.Fatal("mutating the original leaked into the clone")
	}
	if b.Equal(c) {
		t.Fatal("diverged bitmaps still Equal")
	}
	if !Bitmap(nil).Equal(Bitmap(nil)) {
		t.Fatal("nil bitmaps must be equal")
	}
	if NewBitmap(64).Equal(NewBitmap(128)) {
		t.Fatal("bitmaps of different length must not be equal")
	}
}

// populate gives a memory a representative post-boot shape: data runs in
// separate regions, stored capabilities, and revocation bits.
func populate(t *testing.T) *Memory {
	t.Helper()
	m := New(0x4000)
	root := cap.Root(0, 0x4000)
	if err := m.StoreBytes(root.WithAddress(0x100), []byte("compartment code")); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(root.WithAddress(0x2f00), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		v := cap.New(0x200+i*0x10, 0x300+i*0x10, 0x200+i*0x10, cap.PermData)
		if err := m.StoreCap(root.WithAddress(0x800+i*8), v); err != nil {
			t.Fatal(err)
		}
	}
	m.Revoke(0x3000, 64)
	return m
}

func TestMemoryCloneEqual(t *testing.T) {
	m := populate(t)
	c := m.Clone()
	if !m.Equal(c) || !c.Equal(m) {
		t.Fatal("clone not Equal to original")
	}
	// Divergence in each state dimension must break equality without
	// touching the original.
	root := cap.Root(0, 0x4000)
	if err := c.StoreBytes(root.WithAddress(0x50), []byte{9}); err != nil {
		t.Fatal(err)
	}
	if m.Equal(c) {
		t.Fatal("data divergence not detected")
	}
	c2 := m.Clone()
	if err := c2.StoreBytes(root.WithAddress(0x800), []byte{0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err) // overwrites a capability granule: clears its tag
	}
	if m.Equal(c2) {
		t.Fatal("tag/cap divergence not detected")
	}
	if m.TagAt(0x800) != true {
		t.Fatal("clone mutation leaked into original tags")
	}
	c3 := m.Clone()
	c3.Revoke(0x1000, 8)
	if m.Equal(c3) {
		t.Fatal("revocation divergence not detected")
	}
	if m.IsRevoked(0x1000) {
		t.Fatal("clone revocation leaked into original")
	}
}

func TestSnapshotRestoreIdentity(t *testing.T) {
	m := populate(t)
	snap := m.Snapshot()
	r := snap.Restore()
	if !m.Equal(r) {
		t.Fatal("restored memory not Equal to snapshotted original")
	}
	if !m.Clone().Equal(r) {
		t.Fatal("Clone and Snapshot/Restore disagree")
	}
	// The snapshot must be immutable: mutating either the source or a
	// restored copy must not affect later restores.
	root := cap.Root(0, 0x4000)
	if err := m.StoreBytes(root.WithAddress(0x100), []byte("overwritten!")); err != nil {
		t.Fatal(err)
	}
	if err := r.Zero(root, 0x4000); err != nil {
		t.Fatal(err)
	}
	r2 := snap.Restore()
	if got, _ := r2.LoadBytes(root.WithAddress(0x100), 16); string(got) != "compartment code" {
		t.Fatalf("second restore saw mutated state: %q", got)
	}
	if !r2.TagAt(0x800) {
		t.Fatal("second restore lost a stored capability")
	}
	if !r2.IsRevoked(0x3000) {
		t.Fatal("second restore lost a revocation bit")
	}
}

// Chunk-boundary edges: non-zero bytes at the very start, the very end,
// and straddling a chunk boundary must all survive the sparse encoding.
func TestSnapshotChunkEdges(t *testing.T) {
	m := New(4 * chunkBytes)
	root := cap.Root(0, 4*chunkBytes)
	edge := []struct{ addr uint32 }{
		{0},                // first byte of SRAM
		{chunkBytes - 1},   // last byte of chunk 0
		{chunkBytes},       // first byte of chunk 1 (adjacent run coalesces)
		{4*chunkBytes - 1}, // last byte of SRAM
	}
	for _, e := range edge {
		if err := m.StoreBytes(root.WithAddress(e.addr), []byte{0xAB}); err != nil {
			t.Fatal(err)
		}
	}
	r := m.Snapshot().Restore()
	if !m.Equal(r) {
		t.Fatal("chunk-edge bytes lost in snapshot/restore")
	}
	// All-zero memory snapshots to the zero chunk alone, also after a
	// write that was zeroed again, and restores equal.
	z := New(2 * chunkBytes)
	if err := z.StoreBytes(root.WithAddress(3), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := z.Zero(root.WithAddress(3), 1); err != nil {
		t.Fatal(err)
	}
	zs := z.Snapshot()
	if len(zs.data) != chunkBytes || slices.Max(zs.chunks) != 0 {
		t.Fatalf("zero memory stored %d bytes", len(zs.data))
	}
	if !z.Equal(zs.Restore()) {
		t.Fatal("zero memory restore differs")
	}
}

// TestSnapshotConcurrentForksWriteApart restores one snapshot on several
// goroutines at once, as a fleet's workers fork one template. Each fork
// writes half of every chunk of its SRAM (straddling into the next chunk
// on every other one, and over the stored capabilities) and zeroes bytes
// the snapshot holds; each must read back only its own writes, and the
// snapshot must restore unchanged afterwards. Under -race this also
// catches a write into storage the forks share.
func TestSnapshotConcurrentForksWriteApart(t *testing.T) {
	m := populate(t)
	want := m.Clone()
	snap := m.Snapshot()
	const forks = 8
	size := m.Size()
	root := cap.Root(0, size)
	// span is the half chunk fork writes into chunk c: the middle of an
	// even chunk, and the last quarter of an odd one plus the first
	// quarter of the next.
	span := func(c uint32) (at, n uint32) {
		at = c*chunkBytes + chunkBytes/4 + c%2*chunkBytes/2
		return at, min(chunkBytes/2, size-at)
	}
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for f := 0; f < forks; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			r := snap.Restore()
			fill := bytes.Repeat([]byte{byte(0x10 + f)}, chunkBytes/2)
			for c := uint32(0); c < size/chunkBytes; c++ {
				at, n := span(c)
				if err := r.StoreBytes(root.WithAddress(at), fill[:n]); err != nil {
					errs[f] = err
					return
				}
			}
			if err := r.Zero(root.WithAddress(0x2f00), 8); err != nil {
				errs[f] = err
				return
			}
			for c := uint32(0); c < size/chunkBytes; c++ {
				at, n := span(c)
				if got, err := r.LoadBytes(root.WithAddress(at), n); err != nil || !bytes.Equal(got, fill[:n]) {
					errs[f] = fmt.Errorf("fork %d: chunk %d reads %x, %v", f, c, got, err)
					return
				}
			}
			if got, _ := r.LoadBytes(root.WithAddress(0x2f00), 3); !bytes.Equal(got, []byte{0, 0, 0}) {
				errs[f] = fmt.Errorf("fork %d: zeroed bytes read %x", f, got)
			}
			if r.TagAt(0x800) {
				errs[f] = fmt.Errorf("fork %d: overwritten capability still tagged", f)
			}
		}(f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !snap.Restore().Equal(want) {
		t.Fatal("a fork's writes reached the shared snapshot")
	}
}
