package loader

import (
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/mem"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// Snapshot/fork boot. Booting is a deterministic function of the image,
// so the loader can run once per image, capture the complete post-boot
// machine state, and Fork can stamp out further machines of that image
// by restoring the state and building the machine from it the way
// LoadWith does. Forking skips linking, report building, and the
// loader's passes; the only per-fork work is a copy-on-write SRAM
// restore and kernel object construction.

// Snapshot is the complete post-boot state of a machine, sufficient to
// Fork identical machines without re-running the loader. It is immutable
// after capture: Restore copies the memory image's chunk table, tags and
// capabilities and shares its data chunks read-only, and everything
// else is either a value or read-only data shared across forks.
type Snapshot struct {
	// img is the image the snapshot was booted from, which every fork
	// boots as is.
	img    *firmware.Image
	mem    *mem.Snapshot
	layout *firmware.Layout
	quotas []QuotaRecord
	// comps are the loader's compartment records in image order, each
	// bound to img's definition. Their maps are read-only after boot, so
	// forks share them; the capabilities are value types, so sharing
	// leaks no mutable state between devices.
	comps  []switcher.CompConfig
	report *firmware.Report
}

// Fork builds a booted machine from a snapshot: the machine LoadWith
// built from the snapshot's image, which the fork boots as is. The
// snapshot supplies everything the loader computed (the SRAM contents,
// the capability graph, the layout, the quota records, the compartment
// records) and the report, which every fork shares read-only. The result
// is indistinguishable from LoadWith on the same image.
func Fork(snap *Snapshot, opts Options) *Boot {
	boot := &Boot{Image: snap.img, Layout: snap.layout, Quotas: snap.quotas}
	if !opts.SkipReport {
		boot.Report = snap.report
	}
	if opts.CaptureSnapshot {
		// A fork's post-boot state is the snapshot's state; reuse it.
		boot.Snapshot = snap
	}
	// The snapshot was taken after the heap was zeroed, so the restored
	// image needs no loader pass: only the machine around it is built.
	boot.build(hw.NewCoreWith(snap.mem.Restore(), snap.img.Hz), snap.comps)
	return boot
}
