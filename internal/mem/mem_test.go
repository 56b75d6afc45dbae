package mem

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
)

func testMem(t *testing.T) (*Memory, cap.Capability) {
	t.Helper()
	m := New(0x1000)
	return m, cap.Root(0, 0x1000)
}

func TestStoreLoadBytes(t *testing.T) {
	m, root := testMem(t)
	w := root.WithAddress(0x100)
	if err := m.StoreBytes(w, []byte("hello")); err != nil {
		t.Fatalf("StoreBytes: %v", err)
	}
	got, err := m.LoadBytes(w, 5)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestLoadRequiresPermission(t *testing.T) {
	m, root := testMem(t)
	noload, _ := root.AndPerms(cap.PermStore)
	if _, err := m.LoadBytes(noload, 1); err != cap.ErrPermitViolation {
		t.Fatalf("load without LD: %v", err)
	}
	nostore, _ := root.AndPerms(cap.PermLoad)
	if err := m.StoreBytes(nostore, []byte{1}); err != cap.ErrPermitViolation {
		t.Fatalf("store without SD: %v", err)
	}
}

func TestBoundsEnforced(t *testing.T) {
	m, root := testMem(t)
	small, err := root.WithAddress(0x100).SetBounds(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(small.WithAddress(0x101), make([]byte, 8)); err != cap.ErrBoundsViolation {
		t.Fatalf("overflowing store: %v", err)
	}
}

func TestCapRoundTrip(t *testing.T) {
	m, root := testMem(t)
	value := cap.New(0x200, 0x300, 0x210, cap.PermData)
	slot := root.WithAddress(0x400)
	if err := m.StoreCap(slot, value); err != nil {
		t.Fatalf("StoreCap: %v", err)
	}
	got, err := m.LoadCap(slot)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if !got.Equal(value) {
		t.Fatalf("round trip: got %v want %v", got, value)
	}
	// Raw data read of the granule sees the cursor.
	w, err := m.Load32(slot)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x210 {
		t.Fatalf("raw read of cap granule = %#x, want cursor 0x210", w)
	}
}

func TestPartialOverwriteClearsTag(t *testing.T) {
	m, root := testMem(t)
	value := cap.New(0x200, 0x300, 0x200, cap.PermData)
	slot := root.WithAddress(0x400)
	if err := m.StoreCap(slot, value); err != nil {
		t.Fatal(err)
	}
	// Overwrite one byte in the middle of the capability.
	if err := m.StoreBytes(root.WithAddress(0x403), []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadCap(slot)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid() {
		t.Fatal("capability survived partial overwrite")
	}
}

func TestCapStoreAlignment(t *testing.T) {
	m, root := testMem(t)
	value := cap.New(0x200, 0x300, 0x200, cap.PermData)
	if err := m.StoreCap(root.WithAddress(0x401), value); err != cap.ErrBoundsViolation {
		t.Fatalf("unaligned StoreCap: %v", err)
	}
	if _, err := m.LoadCap(root.WithAddress(0x401)); err != cap.ErrBoundsViolation {
		t.Fatalf("unaligned LoadCap: %v", err)
	}
}

func TestLoadFilterRevocation(t *testing.T) {
	m, root := testMem(t)
	obj := cap.New(0x200, 0x280, 0x200, cap.PermData)
	slot := root.WithAddress(0x400)
	if err := m.StoreCap(slot, obj); err != nil {
		t.Fatal(err)
	}
	m.Revoke(0x200, 0x80)
	user := root.WithoutPermsMust(cap.PermUser0)
	got, err := m.LoadCap(user.WithAddress(0x400))
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid() {
		t.Fatal("load filter must untag capabilities to revoked memory")
	}
	// The allocator's privileged authority (PermUser0) bypasses the filter.
	got, err = m.LoadCap(root.WithAddress(0x400))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid() {
		t.Fatal("PermUser0 authority must bypass the load filter")
	}
	// Clearing revocation restores loadability for everyone.
	m.ClearRevoked(0x200, 0x80)
	noU0, _ := root.WithoutPerms(cap.PermUser0)
	got, err = m.LoadCap(noU0.WithAddress(0x400))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid() {
		t.Fatal("cleared revocation bit must stop filtering")
	}
}

func TestLoadFilterChecksBaseNotCursor(t *testing.T) {
	m, root := testMem(t)
	// A capability whose cursor points into a revoked region but whose base
	// does not must NOT be filtered: the filter checks the base, which the
	// hardware guarantees is within the original allocation.
	obj := cap.New(0x200, 0x300, 0x280, cap.PermData)
	slot := root.WithAddress(0x400)
	if err := m.StoreCap(slot, obj); err != nil {
		t.Fatal(err)
	}
	m.Revoke(0x280, 0x10)
	got, err := m.LoadCap(root.WithoutPermsMust(cap.PermUser0).WithAddress(0x400))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid() {
		t.Fatal("filter must consult the base, not the cursor")
	}
}

func TestSweepGranules(t *testing.T) {
	m, root := testMem(t)
	obj := cap.New(0x200, 0x280, 0x200, cap.PermData)
	for _, addr := range []uint32{0x400, 0x500, 0x600} {
		if err := m.StoreCap(root.WithAddress(addr), obj); err != nil {
			t.Fatal(err)
		}
	}
	m.Revoke(0x200, 0x80)
	// Sweep in two halves, exercising the resumable pointer.
	next := m.SweepGranules(0, m.Granules()/2)
	m.SweepGranules(next, m.Granules())
	for _, addr := range []uint32{0x400, 0x500, 0x600} {
		if m.TagAt(addr) {
			t.Fatalf("tag at %#x survived the sweep", addr)
		}
	}
}

// TestSweepGranulesWindowEdges: an empty window sweeps nothing, and a
// window that runs past 2^32 granules is clipped to the end of SRAM
// instead of wrapping to a short one.
func TestSweepGranulesWindowEdges(t *testing.T) {
	m, root := testMem(t)
	obj := cap.New(0x200, 0x280, 0x200, cap.PermData)
	if err := m.StoreCap(root.WithAddress(0x600), obj); err != nil {
		t.Fatal(err)
	}
	m.Revoke(0x200, 0x80)
	for _, w := range []struct{ start, count, want uint32 }{
		{0, 0, 0},
		{0xc0, 0, 0xc0},
		{m.Granules(), 5, m.Granules()},
	} {
		if got := m.SweepGranules(w.start, w.count); got != w.want || !m.TagAt(0x600) {
			t.Fatalf("SweepGranules(%d, %d) = %d, tag %v; want %d, tag kept", w.start, w.count, got, m.TagAt(0x600), w.want)
		}
	}
	if got := m.SweepGranules(100, 1<<32-10); got != m.Granules() {
		t.Fatalf("SweepGranules(100, 2^32-10) = %d, want %d", got, m.Granules())
	}
	if m.TagAt(0x600) {
		t.Fatal("tag at 0x600 survived the sweep")
	}
}

func TestZero(t *testing.T) {
	m, root := testMem(t)
	if err := m.StoreBytes(root.WithAddress(0x100), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(root.WithAddress(0x108), cap.New(0, 8, 0, cap.PermData)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(root.WithAddress(0x100), 0x20); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	got, _ := m.LoadBytes(root.WithAddress(0x100), 4)
	for _, b := range got {
		if b != 0 {
			t.Fatal("bytes not zeroed")
		}
	}
	if m.TagAt(0x108) {
		t.Fatal("Zero must clear tags")
	}
}

func TestStoreLocalThroughHeapFails(t *testing.T) {
	m, root := testMem(t)
	stackCap := cap.New(0x800, 0x900, 0x800, cap.PermStack)
	heapAuth, _ := root.AndPerms(cap.PermData) // no PermStoreLocal
	if err := m.StoreCap(heapAuth.WithAddress(0x400), stackCap); err != cap.ErrPermitViolation {
		t.Fatalf("storing local cap through global authority: %v", err)
	}
}

type fakeDevice struct {
	regs map[uint32]uint32
}

func (d *fakeDevice) LoadWord(off uint32) uint32     { return d.regs[off] }
func (d *fakeDevice) StoreWord(off uint32, v uint32) { d.regs[off] = v }

func TestMMIORouting(t *testing.T) {
	m, _ := testMem(t)
	dev := &fakeDevice{regs: map[uint32]uint32{4: 0xabcd}}
	m.MapDevice(0x10000, 0x100, dev)
	mmio := cap.New(0x10000, 0x10100, 0x10004, cap.PermLoad|cap.PermStore)
	got, err := m.Load32(mmio)
	if err != nil {
		t.Fatalf("MMIO load: %v", err)
	}
	if got != 0xabcd {
		t.Fatalf("MMIO load = %#x", got)
	}
	if err := m.Store32(mmio.WithAddress(0x10008), 7); err != nil {
		t.Fatalf("MMIO store: %v", err)
	}
	if dev.regs[8] != 7 {
		t.Fatal("MMIO store did not reach device")
	}
	// Capabilities cannot be loaded from device windows.
	mmioMC := cap.New(0x10000, 0x10100, 0x10000, cap.PermLoad|cap.PermLoadStoreCap)
	if _, err := m.LoadCap(mmioMC); err != cap.ErrBoundsViolation {
		t.Fatalf("LoadCap from MMIO: %v, want bounds violation", err)
	}
}

func TestMMIOOverlapPanics(t *testing.T) {
	m, _ := testMem(t)
	m.MapDevice(0x10000, 0x100, &fakeDevice{})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping MapDevice must panic")
		}
	}()
	m.MapDevice(0x10080, 0x100, &fakeDevice{})
}
