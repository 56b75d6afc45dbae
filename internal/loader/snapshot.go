package loader

import (
	"fmt"

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
// restoring that state and building the machine from it the way LoadWith
// does, each compartment bound to its own image's definition. Forking
// skips linking, report building, and the loader's passes; the only
// per-fork work is a copy-on-write SRAM restore and kernel object
// construction.

// Snapshot is the complete post-boot state of a machine, sufficient to
// Fork identical machines without re-running the loader. It is immutable
// after capture: Restore copies the memory image's chunk table, tags and
// capabilities and shares its data chunks read-only, and everything
// else is either a value or a read-only map shared across forks.
type Snapshot struct {
	// img is the image the snapshot was booted from; Fork checks a fork
	// image's structure against it.
	img    *firmware.Image
	mem    *mem.Snapshot
	layout *firmware.Layout
	quotas []QuotaRecord
	// comps are the loader's compartment records in image order. Their
	// maps are read-only after boot, so forks share them; the
	// capabilities are value types, so sharing leaks no mutable state
	// between devices. build rebinds each record's Def to the fork's
	// image.
	comps  []switcher.CompConfig
	report *firmware.Report
}

// shapeMismatch builds the error for an image that does not match the
// snapshot's shape.
func shapeMismatch(format string, args ...interface{}) error {
	return fmt.Errorf("loader: fork shape mismatch: "+format, args...)
}

// sameNames checks that a fork image lists the snapshot image's
// components of one kind under the same names, in the same order.
func sameNames[T any](kind string, got, want []*T, name func(*T) string) error {
	if len(got) != len(want) {
		return shapeMismatch("%d %ss != %d", len(got), kind, len(want))
	}
	for i := range got {
		if name(got[i]) != name(want[i]) {
			return shapeMismatch("%s %d is %q, snapshot has %q", kind, i, name(got[i]), name(want[i]))
		}
	}
	return nil
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
	if img.SRAM != snap.img.SRAM {
		return nil, shapeMismatch("SRAM %d != %d", img.SRAM, snap.img.SRAM)
	}
	if img.Hz != snap.img.Hz {
		return nil, shapeMismatch("Hz %d != %d", img.Hz, snap.img.Hz)
	}
	if err := sameNames("compartment", img.Compartments, snap.img.Compartments,
		func(c *firmware.Compartment) string { return c.Name }); err != nil {
		return nil, err
	}
	if err := sameNames("library", img.Libraries, snap.img.Libraries,
		func(l *firmware.Library) string { return l.Name }); err != nil {
		return nil, err
	}
	if err := sameNames("thread", img.Threads, snap.img.Threads,
		func(t *firmware.Thread) string { return t.Name }); err != nil {
		return nil, err
	}

	boot := &Boot{Image: img, Layout: snap.layout, Quotas: snap.quotas}
	if snap.report != nil && !opts.SkipReport {
		// The report is pure shape-derived data; only the image name is
		// per-device. Shallow-copy and rebind it — the maps inside are
		// read-only after build and safely shared across forks.
		r := *snap.report
		r.Image = img.Name
		boot.Report = &r
	}
	if opts.CaptureSnapshot {
		// A fork's post-boot state is the snapshot's state; reuse it.
		boot.Snapshot = snap
	}
	// The snapshot was taken after the heap was zeroed, so the restored
	// image needs no loader pass: only the machine around it is built.
	boot.build(hw.NewCoreWith(snap.mem.Restore(), snap.img.Hz), snap.comps)
	return boot, nil
}
