package loader

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/mem"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// Snapshot/fork boot. Booting is deterministic in the image's *shape* —
// its sizes, names, exports, imports, and init data — not in the Go
// closures (Entry, State, ErrorHandler) that give each device its
// behavior. So the loader can run once per shape, capture the complete
// post-boot machine state, and Fork can stamp out further machines by
// restoring that state and re-binding each compartment to its own image's
// definitions. Forking skips linking, report building, and all five
// loader passes; the only per-fork work is a copy-on-write SRAM restore
// and kernel object construction.

// compSnap is one compartment's captured boot product: its layout, its
// code/globals capabilities, and its import-table contents. The maps are
// read-only after boot, so forks share them; the capabilities are value
// types, so sharing leaks no mutable state between devices.
type compSnap struct {
	name          string
	layout        firmware.CompLayout
	code          cap.Capability
	globals       cap.Capability
	importCalls   map[switcher.EntryKey]cap.Capability
	importLibs    map[switcher.EntryKey]bool
	mmio          map[string]cap.Capability
	sealedImports map[string]cap.Capability
	shared        map[string]cap.Capability
}

// libSnap is one shared library's captured code capability.
type libSnap struct {
	name string
	code cap.Capability
}

// Snapshot is the complete post-boot state of a machine, sufficient to
// Fork identical machines without re-running the loader. It is immutable
// after capture: Restore copies the memory image's chunk table, tags and
// capabilities and shares its data chunks read-only, and everything
// else is either a value or a read-only map shared across forks.
type Snapshot struct {
	sram    uint32
	hz      uint64
	mem     *mem.Snapshot
	layout  *firmware.Layout
	quotas  []QuotaRecord
	comps   []compSnap
	libs    []libSnap
	threads []string
	report  *firmware.Report
}

// capture records the post-boot state. Compartments and libraries are
// captured in image order so Fork re-adds them deterministically.
func capture(img *firmware.Image, core *hw.Core, layout *firmware.Layout,
	report *firmware.Report, quotas []QuotaRecord, comps map[string]*compBuild) *Snapshot {

	s := &Snapshot{
		sram:   img.SRAM,
		hz:     img.Hz,
		mem:    core.Mem.Snapshot(),
		layout: layout,
		quotas: quotas,
		report: report,
	}
	for _, cdef := range img.Compartments {
		b := comps[cdef.Name]
		s.comps = append(s.comps, compSnap{
			name:          b.def.Name,
			layout:        b.layout,
			code:          b.code,
			globals:       b.globals,
			importCalls:   b.importCalls,
			importLibs:    b.importLibs,
			mmio:          b.mmio,
			sealedImports: b.sealedImports,
			shared:        b.sharedCaps,
		})
	}
	for _, ldef := range img.Libraries {
		s.libs = append(s.libs, libSnap{name: ldef.Name, code: derive(cap.Root(0, img.SRAM), layout.Libs[ldef.Name], cap.PermCode)})
	}
	for _, tdef := range img.Threads {
		s.threads = append(s.threads, tdef.Name)
	}
	return s
}

// shapeMismatch builds the error for an image that does not match the
// snapshot's shape.
func shapeMismatch(format string, args ...interface{}) error {
	return fmt.Errorf("loader: fork shape mismatch: "+format, args...)
}

// Fork builds a booted machine from a snapshot and a fresh image of the
// same shape. The image supplies the per-device parts the snapshot cannot
// hold — compartment Entry/State/ErrorHandler closures and thread entry
// points — while the snapshot supplies everything the loader would have
// computed: the SRAM contents, the capability graph, the layout, and the
// quota records. The result is indistinguishable from LoadWith on the
// same image.
//
// Fork validates that the image's structure matches the snapshot's
// (compartment, library, and thread names in order; SRAM size and clock
// rate) and fails loudly on a mismatch rather than producing a machine
// whose memory disagrees with its definitions. Validation is structural,
// not exhaustive — callers pair snapshots with images of the same shape
// (see internal/snapshot.Key for the canonical shape identity).
func Fork(snap *Snapshot, img *firmware.Image, opts Options) (*Boot, error) {
	if img.SRAM != snap.sram {
		return nil, shapeMismatch("SRAM %d != %d", img.SRAM, snap.sram)
	}
	if img.Hz != snap.hz {
		return nil, shapeMismatch("Hz %d != %d", img.Hz, snap.hz)
	}
	if len(img.Compartments) != len(snap.comps) {
		return nil, shapeMismatch("%d compartments != %d", len(img.Compartments), len(snap.comps))
	}
	for i, cdef := range img.Compartments {
		if cdef.Name != snap.comps[i].name {
			return nil, shapeMismatch("compartment %d is %q, snapshot has %q", i, cdef.Name, snap.comps[i].name)
		}
	}
	if len(img.Libraries) != len(snap.libs) {
		return nil, shapeMismatch("%d libraries != %d", len(img.Libraries), len(snap.libs))
	}
	for i, ldef := range img.Libraries {
		if ldef.Name != snap.libs[i].name {
			return nil, shapeMismatch("library %d is %q, snapshot has %q", i, ldef.Name, snap.libs[i].name)
		}
	}
	if len(img.Threads) != len(snap.threads) {
		return nil, shapeMismatch("%d threads != %d", len(img.Threads), len(snap.threads))
	}
	for i, tdef := range img.Threads {
		if tdef.Name != snap.threads[i] {
			return nil, shapeMismatch("thread %d is %q, snapshot has %q", i, tdef.Name, snap.threads[i])
		}
	}

	core := hw.NewCoreWith(snap.mem.Restore(), snap.hz)
	board := newBoard(core)
	k := switcher.NewKernel(core)
	for i, cs := range snap.comps {
		k.AddComp(switcher.NewComp(switcher.CompConfig{
			Def:           img.Compartments[i],
			Layout:        cs.layout,
			Code:          cs.code,
			Globals:       cs.globals,
			ImportCalls:   cs.importCalls,
			ImportLibs:    cs.importLibs,
			MMIO:          cs.mmio,
			SealedImports: cs.sealedImports,
			Shared:        cs.shared,
		}))
	}
	for i, ls := range snap.libs {
		k.AddLib(switcher.NewLib(img.Libraries[i], ls.code))
	}
	for _, tdef := range img.Threads {
		k.AddThread(tdef, snap.layout.Threads[tdef.Name])
	}
	// The snapshot was taken after pass 5: the heap bytes are already
	// zeroed in the restored image, so only the allocator's privileged
	// root needs handing over again.
	k.SetHeap(snap.layout.Heap, AllocatorCompartment)

	var report *firmware.Report
	if snap.report != nil && !opts.SkipReport {
		// The report is pure shape-derived data; only the image name is
		// per-device. Shallow-copy and rebind it — the maps inside are
		// read-only after build and safely shared across forks.
		r := *snap.report
		r.Image = img.Name
		report = &r
	}
	boot := &Boot{
		Kernel: k, Board: board, Image: img, Layout: snap.layout,
		Report: report, Quotas: snap.quotas,
	}
	if opts.CaptureSnapshot {
		// A fork's post-boot state is the snapshot's state; reuse it.
		boot.Snapshot = snap
	}
	return boot, nil
}
