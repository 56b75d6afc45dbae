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

// newBoard instantiates the SoC's devices around a core, for cold boot
// and Fork alike: device state is reconstructed per machine, never
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
	boot := &Boot{Image: img, Layout: layout}
	if !opts.SkipReport {
		boot.Report = firmware.NewReport(img, layout)
	}

	core := hw.NewCore(img.SRAM, img.Hz)

	// The loader's working authority: the omnipotent root over SRAM. It
	// exists only inside this function.
	root := cap.Root(0, img.SRAM)
	sealSwitcher := sealAuthority(cap.TypeSwitcherExport)
	sealAlloc := sealAuthority(cap.TypeAllocator)

	// Pass 1: one record per compartment, with its entry table and
	// code/globals capabilities; initialize globals.
	comps := make([]switcher.CompConfig, len(img.Compartments))
	byName := make(map[string]*switcher.CompConfig, len(img.Compartments))
	for i, cdef := range img.Compartments {
		c := &comps[i]
		c.Def, c.Layout = cdef, layout.Comps[cdef.Name]
		c.Entries = make(map[string]switcher.Entry, len(cdef.Exports))
		for _, e := range cdef.Exports {
			c.Entries[e.Name] = switcher.Entry{Export: e, Label: cdef.Name + "." + e.Name}
		}
		c.Code = derive(root, c.Layout.Code, cap.PermCode)
		c.Globals = derive(root, c.Layout.Data, cap.PermData)
		if len(cdef.GlobalsInit) > 0 {
			if err := core.Mem.StoreBytes(c.Globals, cdef.GlobalsInit); err != nil {
				return nil, fmt.Errorf("loader: init globals of %s: %w", cdef.Name, err)
			}
		}
		byName[cdef.Name] = c
	}

	// Pass 2: quota records for every static allocation capability. The
	// records are allocator-protected metadata: the sealed capability's
	// address is an identifier in a reserved, non-addressable range, so a
	// holder can neither dereference nor forge it (§3.2.2).
	sealedAllocCaps := make(map[string]cap.Capability) // "comp.name" -> sealed cap
	next := uint32(QuotaRecordBase)
	for _, cdef := range img.Compartments {
		for _, ac := range cdef.AllocCaps {
			rec := QuotaRecord{Addr: next, Limit: ac.Quota, Owner: cdef.Name, Name: ac.Name}
			boot.Quotas = append(boot.Quotas, rec)
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
	staticKeys := make(map[string]cap.Capability) // "comp.type" -> key
	nextStaticType := uint32(StaticSealTypeBase)
	for _, c := range comps {
		cdef := c.Def
		for _, st := range cdef.SealTypes {
			vt := nextStaticType
			nextStaticType++
			staticKeys[importName(cdef.Name, st)] = cap.New(vt, vt+1, vt, cap.PermSeal|cap.PermUnseal)
		}
		addr := c.Layout.StaticSealed.Base
		for _, so := range cdef.StaticSealed {
			key := staticKeys[importName(cdef.Name, so.SealType)]
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
			shared(byName[w], sg.Name, rw)
		}
		for _, rd := range sg.Readers {
			shared(byName[rd], sg.Name, ro)
		}
	}

	// Pass 3: export tables, then import tables referencing them. Image
	// order, so boot is bit-for-bit reproducible run to run.
	for i := range comps {
		if err := writeExportTable(core, root, &comps[i]); err != nil {
			return nil, err
		}
	}
	for i := range comps {
		if err := buildImports(core, root, sealSwitcher, img, layout, byName, sealedAllocCaps, staticKeys, &comps[i]); err != nil {
			return nil, err
		}
	}

	// Pass 4: the shared heap. Zero it (no secrets from previous boots,
	// §3.1.3) — this also erases the loader itself, which ran out of the
	// heap region.
	heapCap := derive(root, layout.Heap, cap.PermData)
	if err := core.Mem.Zero(heapCap, layout.Heap.Size); err != nil {
		return nil, fmt.Errorf("loader: zeroing heap: %w", err)
	}

	if opts.CaptureSnapshot {
		boot.Snapshot = &Snapshot{img: img, mem: core.Mem.Snapshot(), layout: layout,
			quotas: boot.Quotas, comps: comps, report: boot.Report}
	}
	boot.build(core, comps)
	return boot, nil
}

// build hands the booted memory over as a running machine: the board
// around core, the kernel with one runtime compartment per record, the
// image's libraries and threads at their linked places, and the
// allocator's privileged heap root. LoadWith calls it after its passes,
// and Fork on a restored snapshot with the records the capture kept, so
// a fork is built exactly as a cold boot is.
func (b *Boot) build(core *hw.Core, comps []switcher.CompConfig) {
	b.Board = newBoard(core)
	k := switcher.NewKernel(core)
	for _, c := range comps {
		k.AddComp(switcher.NewComp(c))
	}
	root := cap.Root(0, b.Image.SRAM)
	for _, ldef := range b.Image.Libraries {
		k.AddLib(switcher.NewLib(ldef, derive(root, b.Layout.Libs[ldef.Name], cap.PermCode)))
	}
	for _, tdef := range b.Image.Threads {
		k.AddThread(tdef, b.Layout.Threads[tdef.Name])
	}
	k.SetHeap(b.Layout.Heap, AllocatorCompartment)
	b.Kernel = k
}

// shared records one shared-global grant.
func shared(c *switcher.CompConfig, name string, g cap.Capability) {
	if c.Shared == nil {
		c.Shared = make(map[string]cap.Capability)
	}
	c.Shared[name] = g
}

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

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
func writeExportTable(core *hw.Core, root cap.Capability, c *switcher.CompConfig) error {
	tbl := derive(root, c.Layout.ExportTable, cap.PermData|cap.PermStoreLocal)
	for i := range c.Def.Exports {
		slot := tbl.WithAddress(c.Layout.ExportTable.Base + uint32(i)*firmware.ExportEntryBytes)
		entryCap := c.Code.WithAddress(c.Layout.Code.Base + uint32(i))
		if err := core.Mem.StoreCap(slot, entryCap); err != nil {
			return fmt.Errorf("loader: export table of %s: %w", c.Def.Name, err)
		}
	}
	return nil
}

// buildImports populates a compartment's import table: the only
// capabilities that, after boot, may point outside the compartment (§4).
func buildImports(core *hw.Core, root, sealSwitcher cap.Capability,
	img *firmware.Image, layout *firmware.Layout,
	comps map[string]*switcher.CompConfig, sealedAllocCaps, staticKeys map[string]cap.Capability,
	c *switcher.CompConfig) error {

	c.ImportCalls = make(map[switcher.EntryKey]cap.Capability)
	c.ImportLibs = make(map[switcher.EntryKey]bool)
	c.MMIO = make(map[string]cap.Capability)
	c.SealedImports = make(map[string]cap.Capability)

	tblRegion := c.Layout.ImportTable
	tbl := derive(root, tblRegion, cap.PermData|cap.PermStoreLocal)
	slotIdx := uint32(0)
	store := func(v cap.Capability) error {
		if tblRegion.Size == 0 {
			return nil
		}
		slot := tbl.WithAddress(tblRegion.Base + slotIdx*firmware.ImportEntryBytes)
		slotIdx++
		return core.Mem.StoreCap(slot, v)
	}

	for _, im := range c.Def.Imports {
		switch im.Kind {
		case firmware.ImportCall:
			target := comps[im.Target]
			idx := exportIndex(target.Def, im.Entry)
			raw := cap.New(target.Layout.ExportTable.Base,
				target.Layout.ExportTable.Top(),
				target.Layout.ExportTable.Base+uint32(idx)*firmware.ExportEntryBytes,
				cap.PermLoad|cap.PermLoadStoreCap)
			sealed, err := raw.Seal(sealSwitcher)
			if err != nil {
				return fmt.Errorf("loader: sealing import %s->%s.%s: %w", c.Def.Name, im.Target, im.Entry, err)
			}
			c.ImportCalls[switcher.EntryKey{Target: im.Target, Entry: im.Entry}] = sealed
			if err := store(sealed); err != nil {
				return err
			}
		case firmware.ImportLib:
			c.ImportLibs[switcher.EntryKey{Target: im.Target, Entry: im.Entry}] = true
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
			c.MMIO[im.Target] = w
			// Device windows are above SRAM; the import table stores only
			// SRAM-backed capabilities in this model, so the window
			// capability lives in the runtime table alone.
			slotIdx++
		case firmware.ImportSealed:
			sealed, ok := sealedAllocCaps[importName(im.Target, im.Entry)]
			if !ok {
				return fmt.Errorf("loader: no sealed object %s.%s", im.Target, im.Entry)
			}
			c.SealedImports[importName(im.Target, im.Entry)] = sealed
			if err := store(sealed); err != nil {
				return err
			}
		}
	}
	// A compartment's own allocation capabilities are also sealed imports,
	// named without the owner prefix for convenience.
	for _, ac := range c.Def.AllocCaps {
		sealed := sealedAllocCaps[importName(c.Def.Name, ac.Name)]
		c.SealedImports[ac.Name] = sealed
		if err := store(sealed); err != nil {
			return err
		}
	}
	// Likewise its own static sealed objects, and the keys for the seal
	// types it declared ("key:<type>").
	for _, so := range c.Def.StaticSealed {
		c.SealedImports[so.Name] = sealedAllocCaps[importName(c.Def.Name, so.Name)]
	}
	for _, st := range c.Def.SealTypes {
		c.SealedImports["key:"+st] = staticKeys[importName(c.Def.Name, st)]
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
