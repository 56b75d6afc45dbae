package loader_test

import (
	"bytes"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/loader"
)

func nop(ctx api.Context, args []api.Value) []api.Value { return nil }

func testImage() *firmware.Image {
	img := firmware.NewImage("loader-test")
	img.AddCompartment(&firmware.Compartment{
		Name: "a", CodeSize: 512, DataSize: 64,
		GlobalsInit: []byte{9, 8, 7, 6},
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "b", Entry: "serve"},
			{Kind: firmware.ImportMMIO, Target: firmware.DeviceLED},
			{Kind: firmware.ImportSealed, Target: "b", Entry: "bq"},
		},
		Exports:   []*firmware.Export{{Name: "main", MinStack: 128, Entry: nop}},
		AllocCaps: []firmware.AllocCap{{Name: "aq", Quota: 1024}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "b", CodeSize: 256, DataSize: 32,
		Exports:   []*firmware.Export{{Name: "serve", MinStack: 128, Entry: nop}},
		AllocCaps: []firmware.AllocCap{{Name: "bq", Quota: 2048}},
	})
	img.AddLibrary(&firmware.Library{
		Name: "lib", CodeSize: 128,
		Funcs: []*firmware.Export{{Name: "fn", Entry: nop}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "a", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	return img
}

func TestLoadBuildsCapabilityGraph(t *testing.T) {
	boot, err := loader.Load(testImage())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	k := boot.Kernel

	a := k.Comp("a")
	if a == nil || k.Comp("b") == nil {
		t.Fatal("compartments missing")
	}
	// Globals initialized from the image.
	g, err := boot.Board.Core.Mem.LoadBytes(a.Globals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 9 || g[3] != 6 {
		t.Fatalf("globals = %v", g)
	}
	// The globals capability is confined to the data region.
	if a.Globals().Length() != boot.Layout.Comps["a"].Data.Size {
		t.Fatal("globals capability has wrong bounds")
	}
	if a.Globals().Perms().Has(cap.PermSystem) || a.Globals().Perms().Has(cap.PermUser0) {
		t.Fatal("globals capability carries privileged permissions")
	}
}

func TestLoadWritesSealedImportTable(t *testing.T) {
	boot, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	// The import table region of "a" must contain a sealed capability
	// pointing at b's export table (Fig. 3).
	region := boot.Layout.Comps["a"].ImportTable
	probe := cap.New(region.Base, region.Top(), region.Base,
		cap.PermLoad|cap.PermLoadStoreCap|cap.PermLoadGlobal|cap.PermLoadMutable)
	c, err := boot.Board.Core.Mem.LoadCap(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || !c.Sealed() {
		t.Fatalf("first import entry = %v, want sealed capability", c)
	}
	bExports := boot.Layout.Comps["b"].ExportTable
	if c.Base() != bExports.Base {
		t.Fatalf("sealed import points at %#x, want b's export table %#x", c.Base(), bExports.Base)
	}
	// Being sealed, it cannot be dereferenced by the holder.
	if err := c.CheckAccess(cap.PermLoad, 1); err != cap.ErrSealViolation {
		t.Fatalf("sealed import dereference: %v", err)
	}
}

func TestLoadQuotaRecords(t *testing.T) {
	boot, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	if len(boot.Quotas) != 2 {
		t.Fatalf("quota records = %d, want 2", len(boot.Quotas))
	}
	for _, q := range boot.Quotas {
		if q.Addr < loader.QuotaRecordBase {
			t.Fatalf("quota record %q at %#x inside SRAM", q.Name, q.Addr)
		}
	}
	// Owner a's record reflects its declared quota.
	var found bool
	for _, q := range boot.Quotas {
		if q.Owner == "a" && q.Name == "aq" && q.Limit == 1024 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing quota record for a.aq: %+v", boot.Quotas)
	}
}

func TestLoadZeroesHeap(t *testing.T) {
	boot, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	heap := boot.Layout.Heap
	probe := cap.New(heap.Base, heap.Top(), heap.Base, cap.PermLoad)
	// Sample the heap region; every byte must be zero after boot
	// (§3.1.3 — this also erases the loader itself).
	for off := uint32(0); off < heap.Size; off += 4097 {
		n := uint32(64)
		if off+n > heap.Size {
			n = heap.Size - off
		}
		b, err := boot.Board.Core.Mem.LoadBytes(probe.WithAddress(heap.Base+off), n)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range b {
			if x != 0 {
				t.Fatalf("heap byte at +%d not zero: %d", off+uint32(i), x)
			}
		}
	}
}

func TestLoadRejectsInvalidImage(t *testing.T) {
	img := testImage()
	img.Threads = nil
	if _, err := loader.Load(img); err == nil {
		t.Fatal("Load accepted an image with no threads")
	}
}

func TestAllocatorRootGating(t *testing.T) {
	img := testImage()
	boot, err := loader.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody has been named allocator in this image (core.Boot does that),
	// so the root is not handed out at all.
	if _, ok := boot.Kernel.AllocatorRoot("a"); ok {
		t.Fatal("heap root handed to a non-allocator compartment")
	}
}

func TestLoadDeterministic(t *testing.T) {
	b1, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	// The layout and the quota identifier assignment are functions of the
	// image alone (§3.1.1 "we design it to be deterministic").
	if b1.Layout.Heap != b2.Layout.Heap {
		t.Fatal("heap layout differs between identical loads")
	}
	for i := range b1.Quotas {
		if b1.Quotas[i] != b2.Quotas[i] {
			t.Fatalf("quota records differ: %+v vs %+v", b1.Quotas[i], b2.Quotas[i])
		}
	}
	for name, cl1 := range b1.Layout.Comps {
		if b2.Layout.Comps[name] != cl1 {
			t.Fatalf("layout for %s differs", name)
		}
	}
}

func TestMMIOGrantsOnlyDeclaredDevices(t *testing.T) {
	boot, err := loader.Load(testImage())
	if err != nil {
		t.Fatal(err)
	}
	// Compartment a imported only the LED window; its runtime MMIO map
	// must not contain anything else. (Access is exercised end-to-end in
	// the core tests; here we check the graph the loader built.)
	a := boot.Kernel.Comp("a")
	if a == nil {
		t.Fatal("no compartment a")
	}
	// Reach into the capability graph through the context by calling an
	// entry that probes: simpler to verify via report.
	rep := boot.Report
	var mmio []string
	for _, im := range rep.Compartments["a"].Imports {
		if im.Kind == "mmio" {
			mmio = append(mmio, im.Target)
		}
	}
	if len(mmio) != 1 || mmio[0] != firmware.DeviceLED {
		t.Fatalf("a's MMIO grants = %v, want [led]", mmio)
	}
	if len(rep.Compartments["b"].Imports) != 0 {
		t.Fatalf("b has unexpected imports: %+v", rep.Compartments["b"].Imports)
	}
}

// TestBootReportMatchesBuildReport: the report the loader builds from the
// layout it boots encodes to the same bytes as BuildReport's, which links
// the image again.
func TestBootReportMatchesBuildReport(t *testing.T) {
	img := testImage()
	boot, err := loader.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	want, err := firmware.BuildReport(img)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := boot.Report.JSON()
	if exp, _ := want.JSON(); !bytes.Equal(got, exp) {
		t.Fatalf("boot report differs from BuildReport:\n%s\nwant\n%s", got, exp)
	}
}
