// Package snapshot implements checked snapshot/fork boot: boot a firmware
// shape once, capture its complete post-boot state as an immutable
// Template, and fork further identical devices from the template instead
// of re-running the linker and loader per device.
//
// Booting is deterministic in the image's *shape* — the sizes, names,
// exports, imports, quotas, and init bytes the loader reads, and which
// compartments have an error handler, which the audit report records —
// and independent of the Go closures (Entry, State, ErrorHandler) that
// give a device its behavior, and of the image's Name. Key canonicalizes
// that shape into a hash; images with equal keys boot to bit-identical
// SRAM, capability graphs and audit reports. A fork boots its template's
// own image, so Template.Fork checks the image it is handed against the
// template's key: a fork stands in for a cold boot of any image of the
// template's shape whose closures behave as the template's do.
//
// The check is for callers holding images built separately; the fleet
// boots one image per shape and forks its capture with core.Fork.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/loader"
)

// keyVersion tags the canonical serialization; bump it whenever the
// serialization or the set of boot-relevant fields changes.
const keyVersion = "cheriot-snapshot-key-v2"

// Key returns the canonical shape identity of an image: a hash over every
// field the loader or the audit report reads, excluding the image Name and
// all Go closures but for whether each compartment has an ErrorHandler.
// Two images with equal Keys boot to identical machine state and report.
func Key(img *firmware.Image) string {
	ks := keyScribe{h: sha256.New(), buf: make([]byte, 0, 64)}
	ks.str(keyVersion)
	ks.num(uint64(img.SRAM), img.Hz)
	ks.num(uint64(len(img.Compartments)))
	for _, c := range img.Compartments {
		hasHandler := uint64(0)
		if c.ErrorHandler != nil {
			hasHandler = 1
		}
		ks.str(c.Name)
		ks.num(uint64(c.CodeSize), uint64(c.DataSize), uint64(c.WrapperCodeSize), hasHandler)
		ks.num(uint64(len(c.Exports)))
		for _, e := range c.Exports {
			ks.str(e.Name)
			ks.num(uint64(e.MinStack), uint64(e.Posture))
		}
		ks.num(uint64(len(c.Imports)))
		for _, im := range c.Imports {
			ks.num(uint64(im.Kind))
			ks.str(im.Target, im.Entry)
		}
		ks.bytes(c.GlobalsInit)
		ks.num(uint64(len(c.AllocCaps)))
		for _, ac := range c.AllocCaps {
			ks.str(ac.Name)
			ks.num(uint64(ac.Quota))
		}
		ks.num(uint64(len(c.SealTypes)))
		ks.str(c.SealTypes...)
		ks.num(uint64(len(c.StaticSealed)))
		for _, so := range c.StaticSealed {
			ks.str(so.Name, so.SealType)
			ks.num(uint64(so.Size))
			ks.bytes(so.Init)
		}
	}
	ks.num(uint64(len(img.Libraries)))
	for _, l := range img.Libraries {
		ks.str(l.Name)
		ks.num(uint64(l.CodeSize), uint64(len(l.Funcs)))
		for _, f := range l.Funcs {
			ks.str(f.Name)
			ks.num(uint64(f.MinStack), uint64(f.Posture))
		}
	}
	ks.num(uint64(len(img.Threads)))
	for _, t := range img.Threads {
		ks.str(t.Name, t.Compartment, t.Entry)
		ks.num(uint64(int64(t.Priority)), uint64(t.StackSize), uint64(t.TrustedStackFrames))
	}
	ks.num(uint64(len(img.SharedGlobals)))
	for _, sg := range img.SharedGlobals {
		ks.str(sg.Name)
		ks.num(uint64(sg.Size), uint64(len(sg.Writers)))
		ks.str(sg.Writers...)
		ks.num(uint64(len(sg.Readers)))
		ks.str(sg.Readers...)
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(ks.h.Sum(sum[:0]))
}

// keyScribe writes type-tagged, length-prefixed fields into a hash, so
// no two distinct shapes serialize to the same byte stream. Each field is
// encoded into buf, one scratch buffer reused for every field, and
// written to the hash in one call: a per-field array or string copy
// would escape through the hash.Hash interface and allocate, and Key
// runs on every checked fork.
type keyScribe struct {
	h   hash.Hash
	buf []byte
}

func (k *keyScribe) u64(tag byte, n uint64) {
	k.buf = binary.LittleEndian.AppendUint64(append(k.buf[:0], tag), n)
	k.h.Write(k.buf)
}

func (k *keyScribe) str(ss ...string) {
	for _, s := range ss {
		k.buf = append(binary.LittleEndian.AppendUint64(append(k.buf[:0], 's'), uint64(len(s))), s...)
		k.h.Write(k.buf)
	}
}

func (k *keyScribe) num(ns ...uint64) {
	for _, n := range ns {
		k.u64('n', n)
	}
}

func (k *keyScribe) bytes(b []byte) {
	k.u64('b', uint64(len(b)))
	k.h.Write(b)
}

// Template is a captured post-boot machine state bound to the shape key
// of the image it was captured from. It is immutable: every Fork copies
// the mutable state, except SRAM data chunks, which a fork shares
// read-only until it first writes them.
type Template struct {
	key  string
	snap *loader.Snapshot
}

// Capture cold-boots the image with snapshot capture enabled and returns
// both the booted System (fully usable) and the Template for forking
// further Systems. The template keeps the System's audit report unless
// opts.SkipReport; forks that build a report share it.
func Capture(img *firmware.Image, opts core.BootOptions) (*core.System, *Template, error) {
	key := Key(img)
	opts.CaptureSnapshot = true
	sys, err := core.BootWith(img, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, &Template{key: key, snap: sys.Snapshot}, nil
}

// Fork boots a System from the template: a core.Fork of the template's
// own image, which must have the same shape key as img; Fork verifies
// this and refuses a mismatch. The result is indistinguishable from
// core.BootWith of the template's image — same SRAM bytes, same
// capability graph, same report — at a small fraction of the cost.
func (t *Template) Fork(img *firmware.Image, opts core.BootOptions) (*core.System, error) {
	if k := Key(img); k != t.key {
		return nil, fmt.Errorf("snapshot: fork refused: image %q has shape key %s.., template was captured from %s..",
			img.Name, k[:12], t.key[:12])
	}
	opts.CaptureSnapshot = false
	return core.Fork(t.snap, opts), nil
}
