// Package loader implements the boot-time component of the TCB (§3.1.1).
//
// The loader's only input is the firmware image. Starting from the
// omnipotent root capability, it derives and places every initial
// capability in the system: per-compartment code and globals capabilities,
// export tables, import tables (sealed export references, MMIO windows,
// sealed static objects such as allocation capabilities), thread stacks
// and trusted stacks. It zeroes the heap, then erases itself — after Boot
// returns, no component holds the root capability.
package loader

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// Board is the set of devices the loader instantiates on the SoC.
type Board struct {
	Core    *hw.Core
	Timer   *hw.Timer
	Revoker *hw.RevokerControl
	UART    *hw.UART
	LEDs    *hw.LEDBank
	Net     *hw.NetAdaptor
}

// newBoard instantiates the SoC's devices around a core. Cold boot and
// Fork both use it: device state is reconstructed per machine, never
// snapshotted (the snapshot captures only pre-run state, where every
// device is at reset).
func newBoard(core *hw.Core) *Board {
	return &Board{
		Core:    core,
		Timer:   hw.NewTimer(core),
		Revoker: hw.NewRevokerControl(core),
		UART:    hw.NewUART(core),
		LEDs:    hw.NewLEDBank(core),
		Net:     hw.NewNetAdaptor(core),
	}
}

// QuotaRecord describes one static allocation capability the loader
// instantiated: the allocator consumes these at construction (§3.2.2).
type QuotaRecord struct {
	// Addr is the record's address inside the allocator's data region;
	// the sealed allocation capability points at it.
	Addr uint32
	// Limit is the quota in bytes.
	Limit uint32
	// Owner and Name identify the declaring compartment and capability.
	Owner string
	Name  string
}

// Boot is everything the loader hands over when it finishes.
type Boot struct {
	Kernel *switcher.Kernel
	Board  *Board
	Image  *firmware.Image
	Layout *firmware.Layout
	Report *firmware.Report
	Quotas []QuotaRecord
	// Snapshot is the captured post-boot state (nil unless
	// Options.CaptureSnapshot): the input to Fork.
	Snapshot *Snapshot
}

// AllocatorCompartment is the name of the allocator compartment, the only
// one handed the privileged heap root.
const AllocatorCompartment = "alloc"

// CodeBytes and DataBytes model the loader's own footprint (Table 2:
// 7.5 KB of code, 66 B of data). The loader runs out of what becomes the
// heap and erases itself at the end of boot, so this costs no runtime
// SRAM.
const (
	CodeBytes = 7500
	DataBytes = 66
)

// QuotaRecordBase is the start of the reserved identifier range for quota
// records. It lies outside SRAM and outside every device window, so a
// sealed allocation capability can never be dereferenced, only presented
// back to the allocator.
const QuotaRecordBase = 0xA000_0000

// quotaRecordBytes is the identifier stride between quota records.
const quotaRecordBytes = 16

// StaticSealTypeBase is the first virtual sealing type assigned to
// build-time SealTypes declarations. It is disjoint from the token API's
// dynamic range (token.FirstVirtualType) and from SRAM addresses.
const StaticSealTypeBase = 0x0800_0000

// Options tunes Load for callers with unusual needs (e.g. the fleet
// simulator booting thousands of near-identical images).
type Options struct {
	// SkipReport skips building the firmware audit report. The report is
	// pure derived data (it never feeds back into the capability graph),
	// so skipping it changes nothing about the booted machine; it saves
	// time and memory when booting many Systems whose images share a
	// single already-audited template.
	SkipReport bool
	// CaptureSnapshot records the complete post-boot machine state into
	// Boot.Snapshot: the SRAM image (data, capabilities, tag and
	// revocation bitmaps), the linker layout, the quota records, and the
	// per-compartment capability sets. Fork stamps out further machines
	// from it without re-running the loader. Capturing costs one sparse
	// SRAM scan; the booted machine itself is unchanged.
	CaptureSnapshot bool
}

// Load links the image, builds the machine, and instantiates the initial
// capability graph. It is deterministic: the same image always produces
// the same memory contents and capability graph, which is what makes boot
// auditable (§3.1.1).
func Load(img *firmware.Image) (*Boot, error) { return LoadWith(img, Options{}) }

// LoadWith is Load with explicit Options.
func LoadWith(img *firmware.Image, opts Options) (*Boot, error) {
	layout, err := firmware.Link(img)
	if err != nil {
		return nil, err
	}
	var report *firmware.Report
	if !opts.SkipReport {
		report, err = firmware.BuildReport(img)
		if err != nil {
			return nil, err
		}
	}

	core := hw.NewCore(img.SRAM, img.Hz)
	board := newBoard(core)
	k := switcher.NewKernel(core)

	// The loader's working authority: the omnipotent root over SRAM. It
	// exists only inside this function.
	root := cap.Root(0, img.SRAM)
	sealSwitcher := sealAuthority(cap.TypeSwitcherExport)
	sealAlloc := sealAuthority(cap.TypeAllocator)

	// Pass 1: create runtime compartments with code/globals capabilities
	// and initialize globals.
	comps := make(map[string]*compBuild, len(img.Compartments))
	for _, cdef := range img.Compartments {
		cl := layout.Comps[cdef.Name]
		b := &compBuild{def: cdef, layout: cl}
		b.code = derive(root, cl.Code, cap.PermCode)
		b.globals = derive(root, cl.Data, cap.PermData)
		if len(cdef.GlobalsInit) > 0 {
			if err := core.Mem.StoreBytes(b.globals, cdef.GlobalsInit); err != nil {
				return nil, fmt.Errorf("loader: init globals of %s: %w", cdef.Name, err)
			}
		}
		comps[cdef.Name] = b
	}

	// Pass 2: quota records for every static allocation capability. The
	// records are allocator-protected metadata: the sealed capability's
	// address is an identifier in a reserved, non-addressable range, so a
	// holder can neither dereference nor forge it (§3.2.2).
	var quotas []QuotaRecord
	sealedAllocCaps := make(map[string]cap.Capability) // "comp.name" -> sealed cap
	next := uint32(QuotaRecordBase)
	for _, cdef := range img.Compartments {
		for _, ac := range cdef.AllocCaps {
			rec := QuotaRecord{Addr: next, Limit: ac.Quota, Owner: cdef.Name, Name: ac.Name}
			quotas = append(quotas, rec)
			raw := cap.New(next, next+quotaRecordBytes, next, cap.PermLoad)
			sealed, err := raw.Seal(sealAlloc)
			if err != nil {
				return nil, fmt.Errorf("loader: sealing allocation capability: %w", err)
			}
			sealedAllocCaps[importName(cdef.Name, ac.Name)] = sealed
			next += quotaRecordBytes
		}
	}

	// Pass 2b: static virtual sealing types and static sealed objects
	// (§3.2.1). Each owner's seal types get loader-minted keys; each
	// object is laid out as a protected header (the virtual type) plus
	// payload and sealed under the token API's hardware type, so
	// token_unseal works on static and dynamic objects alike.
	sealTok := sealAuthority(cap.TypeToken)
	nextStaticType := uint32(StaticSealTypeBase)
	for _, cdef := range img.Compartments {
		b := comps[cdef.Name]
		b.staticKeys = make(map[string]cap.Capability, len(cdef.SealTypes))
		for _, st := range cdef.SealTypes {
			vt := nextStaticType
			nextStaticType++
			b.staticKeys[st] = cap.New(vt, vt+1, vt, cap.PermSeal|cap.PermUnseal)
		}
		addr := b.layout.StaticSealed.Base
		for _, so := range cdef.StaticSealed {
			key := b.staticKeys[so.SealType]
			total := 8 + align8(so.Size)
			objRegion := firmware.Region{Base: addr, Size: total}
			obj := derive(root, objRegion, cap.PermData)
			if err := core.Mem.Store32(obj, key.Address()); err != nil {
				return nil, fmt.Errorf("loader: static object %s.%s: %w", cdef.Name, so.Name, err)
			}
			if len(so.Init) > 0 {
				if err := core.Mem.StoreBytes(obj.WithAddress(addr+8), so.Init); err != nil {
					return nil, fmt.Errorf("loader: static object %s.%s: %w", cdef.Name, so.Name, err)
				}
			}
			sealed, err := obj.Seal(sealTok)
			if err != nil {
				return nil, fmt.Errorf("loader: sealing %s.%s: %w", cdef.Name, so.Name, err)
			}
			sealedAllocCaps[importName(cdef.Name, so.Name)] = sealed
			addr += total
		}
	}

	// Pass 2c: statically-shared globals — writers get read-write
	// capabilities, readers get deeply-immutable views (§3.2.5).
	for _, sg := range img.SharedGlobals {
		region := layout.Shared[sg.Name]
		rw := derive(root, region, cap.PermData)
		ro := rw.WithoutPermsMust(cap.PermStore | cap.PermLoadMutable)
		for _, w := range sg.Writers {
			comps[w].shared(sg.Name, rw)
		}
		for _, rd := range sg.Readers {
			comps[rd].shared(sg.Name, ro)
		}
	}

	// Pass 3: export tables, then import tables referencing them. Image
	// order, so boot is bit-for-bit reproducible run to run.
	for _, cdef := range img.Compartments {
		if err := writeExportTable(core, root, comps[cdef.Name]); err != nil {
			return nil, err
		}
	}
	for _, cdef := range img.Compartments {
		b := comps[cdef.Name]
		if err := buildImports(core, root, sealSwitcher, img, layout, comps, sealedAllocCaps, b); err != nil {
			return nil, err
		}
		k.AddComp(b.finish())
	}
	for _, ldef := range img.Libraries {
		k.AddLib(switcher.NewLib(ldef, derive(root, layout.Libs[ldef.Name], cap.PermCode)))
	}

	// Pass 4: threads.
	for _, tdef := range img.Threads {
		k.AddThread(tdef, layout.Threads[tdef.Name])
	}

	// Pass 5: the shared heap. Zero it (no secrets from previous boots,
	// §3.1.3) — this also erases the loader itself, which ran out of the
	// heap region. Hand the allocator its privileged root.
	heapCap := derive(root, layout.Heap, cap.PermData)
	if err := core.Mem.Zero(heapCap, layout.Heap.Size); err != nil {
		return nil, fmt.Errorf("loader: zeroing heap: %w", err)
	}
	k.SetHeap(layout.Heap, AllocatorCompartment)

	boot := &Boot{
		Kernel: k, Board: board, Image: img, Layout: layout,
		Report: report, Quotas: quotas,
	}
	if opts.CaptureSnapshot {
		boot.Snapshot = capture(img, core, layout, report, quotas, comps)
	}
	return boot, nil
}

// compBuild accumulates a compartment's runtime pieces during boot.
type compBuild struct {
	def     *firmware.Compartment
	layout  firmware.CompLayout
	code    cap.Capability
	globals cap.Capability

	importCalls   map[switcher.EntryKey]cap.Capability
	importLibs    map[switcher.EntryKey]bool
	mmio          map[string]cap.Capability
	sealedImports map[string]cap.Capability
	staticKeys    map[string]cap.Capability
	sharedCaps    map[string]cap.Capability
}

// shared records one shared-global grant.
func (b *compBuild) shared(name string, c cap.Capability) {
	if b.sharedCaps == nil {
		b.sharedCaps = make(map[string]cap.Capability)
	}
	b.sharedCaps[name] = c
}

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

func (b *compBuild) finish() *switcher.Comp {
	return switcher.NewComp(switcher.CompConfig{
		Def:           b.def,
		Layout:        b.layout,
		Code:          b.code,
		Globals:       b.globals,
		ImportCalls:   b.importCalls,
		ImportLibs:    b.importLibs,
		MMIO:          b.mmio,
		SealedImports: b.sealedImports,
		Shared:        b.sharedCaps,
	})
}

func importName(comp, name string) string { return comp + "." + name }

// derive narrows the root capability to a region with the given perms.
func derive(root cap.Capability, r firmware.Region, perms cap.Perm) cap.Capability {
	c, err := root.WithAddress(r.Base).SetBounds(r.Size)
	if err != nil {
		panic(fmt.Sprintf("loader: derive %+v: %v", r, err))
	}
	c, err = c.AndPerms(perms)
	if err != nil {
		panic(fmt.Sprintf("loader: perms: %v", err))
	}
	return c
}

// sealAuthority builds the loader's sealing capability for an object type.
func sealAuthority(t cap.OType) cap.Capability {
	return cap.New(uint32(t), uint32(t)+1, uint32(t), cap.PermSeal|cap.PermUnseal)
}

// writeExportTable stores one entry per export into the compartment's
// export-table region: the code capability with its cursor at the entry
// point. Only the switcher ever reads this region (§3.1.2).
func writeExportTable(core *hw.Core, root cap.Capability, b *compBuild) error {
	tbl := derive(root, b.layout.ExportTable, cap.PermData|cap.PermStoreLocal)
	for i := range b.def.Exports {
		slot := tbl.WithAddress(b.layout.ExportTable.Base + uint32(i)*firmware.ExportEntryBytes)
		entryCap := b.code.WithAddress(b.layout.Code.Base + uint32(i))
		if err := core.Mem.StoreCap(slot, entryCap); err != nil {
			return fmt.Errorf("loader: export table of %s: %w", b.def.Name, err)
		}
	}
	return nil
}

// buildImports populates a compartment's import table: the only
// capabilities that, after boot, may point outside the compartment (§4).
func buildImports(core *hw.Core, root, sealSwitcher cap.Capability,
	img *firmware.Image, layout *firmware.Layout,
	comps map[string]*compBuild, sealedAllocCaps map[string]cap.Capability,
	b *compBuild) error {

	b.importCalls = make(map[switcher.EntryKey]cap.Capability)
	b.importLibs = make(map[switcher.EntryKey]bool)
	b.mmio = make(map[string]cap.Capability)
	b.sealedImports = make(map[string]cap.Capability)

	tblRegion := b.layout.ImportTable
	tbl := derive(root, tblRegion, cap.PermData|cap.PermStoreLocal)
	slotIdx := uint32(0)
	store := func(c cap.Capability) error {
		if tblRegion.Size == 0 {
			return nil
		}
		slot := tbl.WithAddress(tblRegion.Base + slotIdx*firmware.ImportEntryBytes)
		slotIdx++
		return core.Mem.StoreCap(slot, c)
	}

	for _, im := range b.def.Imports {
		switch im.Kind {
		case firmware.ImportCall:
			target := comps[im.Target]
			idx := exportIndex(target.def, im.Entry)
			raw := cap.New(target.layout.ExportTable.Base,
				target.layout.ExportTable.Top(),
				target.layout.ExportTable.Base+uint32(idx)*firmware.ExportEntryBytes,
				cap.PermLoad|cap.PermLoadStoreCap)
			sealed, err := raw.Seal(sealSwitcher)
			if err != nil {
				return fmt.Errorf("loader: sealing import %s->%s.%s: %w", b.def.Name, im.Target, im.Entry, err)
			}
			b.importCalls[switcher.EntryKey{Target: im.Target, Entry: im.Entry}] = sealed
			if err := store(sealed); err != nil {
				return err
			}
		case firmware.ImportLib:
			b.importLibs[switcher.EntryKey{Target: im.Target, Entry: im.Entry}] = true
			lib := img.Library(im.Target)
			code := derive(root, layout.Libs[im.Target], cap.PermCode)
			sentry, err := code.WithAddress(layout.Libs[im.Target].Base +
				uint32(funcIndex(lib, im.Entry))).SealEntry(cap.TypeSentryInherit)
			if err != nil {
				return fmt.Errorf("loader: library sentry %s.%s: %w", im.Target, im.Entry, err)
			}
			if err := store(sentry); err != nil {
				return err
			}
		case firmware.ImportMMIO:
			base, size, err := firmware.DeviceWindow(im.Target)
			if err != nil {
				return err
			}
			w := cap.New(base, base+size, base, cap.PermGlobal|cap.PermLoad|cap.PermStore)
			b.mmio[im.Target] = w
			// Device windows are above SRAM; the import table stores only
			// SRAM-backed capabilities in this model, so the window
			// capability lives in the runtime table alone.
			slotIdx++
		case firmware.ImportSealed:
			sealed, ok := sealedAllocCaps[importName(im.Target, im.Entry)]
			if !ok {
				return fmt.Errorf("loader: no sealed object %s.%s", im.Target, im.Entry)
			}
			b.sealedImports[importName(im.Target, im.Entry)] = sealed
			if err := store(sealed); err != nil {
				return err
			}
		}
	}
	// A compartment's own allocation capabilities are also sealed imports,
	// named without the owner prefix for convenience.
	for _, ac := range b.def.AllocCaps {
		sealed := sealedAllocCaps[importName(b.def.Name, ac.Name)]
		b.sealedImports[ac.Name] = sealed
		if err := store(sealed); err != nil {
			return err
		}
	}
	// Likewise its own static sealed objects, and the keys for the seal
	// types it declared ("key:<type>").
	for _, so := range b.def.StaticSealed {
		b.sealedImports[so.Name] = sealedAllocCaps[importName(b.def.Name, so.Name)]
	}
	for st, key := range b.staticKeys {
		b.sealedImports["key:"+st] = key
	}
	return nil
}

func exportIndex(c *firmware.Compartment, name string) int {
	for i, e := range c.Exports {
		if e.Name == name {
			return i
		}
	}
	return -1
}

func funcIndex(l *firmware.Library, name string) int {
	for i, f := range l.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}
