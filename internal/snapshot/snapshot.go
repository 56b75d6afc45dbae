// Package snapshot implements snapshot/fork boot: boot one device per
// firmware shape, capture its complete post-boot state as an immutable
// Template, and fork further identical devices from the template instead
// of re-running the linker and loader per device.
//
// Booting is deterministic in the image's *shape* — the sizes, names,
// exports, imports, quotas, and init bytes the loader reads — and
// independent of the Go closures (Entry, State, ErrorHandler) that give a
// device its behavior, and of the image's Name. Key canonicalizes that
// shape into a hash; images with equal keys boot to bit-identical SRAM
// and capability graphs, so a fork from one's template is
// indistinguishable from a cold boot of the other.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/loader"
)

// keyVersion tags the canonical serialization; bump it whenever the
// serialization or the set of boot-relevant fields changes.
const keyVersion = "cheriot-snapshot-key-v1"

// Key returns the canonical shape identity of an image: a hash over every
// field the loader reads, excluding the image Name and all Go closures.
// Two images with equal Keys boot to identical machine state.
//
// Compute the Key on the image as the caller built it (before Boot, which
// may inject the TCB compartments): Capture and Fork both key at that
// point, so the comparison is like for like.
func Key(img *firmware.Image) string {
	h := sha256.New()
	ks := keyScribe{h: h}
	ks.str(keyVersion)
	ks.num(uint64(img.SRAM), img.Hz)
	ks.num(uint64(len(img.Compartments)))
	for _, c := range img.Compartments {
		ks.str(c.Name)
		ks.num(uint64(c.CodeSize), uint64(c.DataSize), uint64(c.WrapperCodeSize))
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
	return hex.EncodeToString(h.Sum(nil))
}

// keyScribe writes type-tagged, length-prefixed fields into a hash, so
// no two distinct shapes serialize to the same byte stream. It writes
// fixed-width binary directly (no fmt): Key sits on the template
// verification path, and formatting dominated its cost.
type keyScribe struct{ h hash.Hash }

func (k keyScribe) u64(tag byte, n uint64) {
	var buf [9]byte
	buf[0] = tag
	binary.LittleEndian.PutUint64(buf[1:], n)
	k.h.Write(buf[:])
}

func (k keyScribe) str(ss ...string) {
	for _, s := range ss {
		k.u64('s', uint64(len(s)))
		io.WriteString(k.h, s)
	}
}

func (k keyScribe) num(ns ...uint64) {
	for _, n := range ns {
		k.u64('n', n)
	}
}

func (k keyScribe) bytes(b []byte) {
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

// Key returns the shape key of the image the template was captured from.
func (t *Template) Key() string { return t.key }

// Capture cold-boots the image with snapshot capture enabled and returns
// both the booted System (fully usable — it IS the first device) and the
// Template for forking the rest.
func Capture(img *firmware.Image, opts core.BootOptions) (*core.System, *Template, error) {
	key := Key(img) // before Boot injects the TCB compartments
	opts.CaptureSnapshot = true
	opts.Snapshot = nil
	sys, err := core.BootWith(img, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, &Template{key: key, snap: sys.Snapshot}, nil
}

// Fork boots a System from the template. The image must have the same
// shape key as the image the template was captured from; Fork verifies
// this and refuses a mismatch. The result is indistinguishable from
// core.BootWith(img, opts) — same SRAM bytes, same capability graph,
// same report behavior — at a small fraction of the cost.
func (t *Template) Fork(img *firmware.Image, opts core.BootOptions) (*core.System, error) {
	if k := Key(img); k != t.key {
		return nil, fmt.Errorf("snapshot: fork refused: image %q has shape key %s.., template was captured from %s..",
			img.Name, k[:12], t.key[:12])
	}
	return t.forkUnchecked(img, opts)
}

// forkUnchecked skips the shape-key check; the Cache uses it after
// verifying the key once per alias.
func (t *Template) forkUnchecked(img *firmware.Image, opts core.BootOptions) (*core.System, error) {
	opts.CaptureSnapshot = false
	opts.Snapshot = t.snap
	return core.BootWith(img, opts)
}

// CacheStats counts what a Cache did.
type CacheStats struct {
	// Templates is the number of distinct shapes captured.
	Templates int
	// ColdBoots is the number of full loader boots (one per template).
	ColdBoots int
	// Forks is the number of Systems stamped out from templates.
	Forks int
	// Aliases breaks the counters down per alias, sorted by alias.
	Aliases []AliasStats
}

// AliasStats is one alias's slice of the cache's work.
type AliasStats struct {
	Alias string
	// Misses is the number of cold-boot captures under this alias —
	// always 1 for a healthy alias, however many devices boot through it.
	Misses int
	// Hits is the number of forks served from the alias's template.
	Hits int
	// Verifies counts full shape-key verifications (the once-per-alias
	// check on the first fork, so 1 when any fork happened).
	Verifies int
	// Poisoned reports that verification failed: the alias mapped images
	// of different shapes and the cache refuses to serve it.
	Poisoned bool
}

// Cache memoizes one Template per firmware shape and boots Systems from
// it: the first Boot per shape cold-boots and captures, every later Boot
// forks. It is safe for concurrent use; concurrent first callers of the
// same shape block until the one capture finishes.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   CacheStats
}

type cacheEntry struct {
	ready chan struct{} // closed once tmpl/err are set
	tmpl  *Template
	err   error
	// verifyOnce runs the full Key(img)-vs-template check exactly once
	// per alias, on the first fork; concurrent forkers block in Do until
	// it settles, then all observe badAlias.
	verifyOnce sync.Once
	badAlias   error // set when that check failed: the alias is poisoned

	// per-alias counters, guarded by the cache mutex
	hits     int
	verifies int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Boot returns a booted System for the image, forking from the cached
// template for alias when one exists and cold-boot-capturing otherwise.
// forked reports which path was taken.
//
// alias is a cheap caller-chosen stand-in for the image's shape (e.g. the
// fleet keys by firmware profile): all images booted under one alias must
// have the same shape. The full shape key is still computed and verified
// once per alias — on the first fork — so an alias collision is caught,
// at a cost amortized over the whole fleet rather than paid per device.
func (c *Cache) Boot(alias string, img *firmware.Image, opts core.BootOptions) (sys *core.System, forked bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[alias]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		c.entries[alias] = e
		c.stats.Templates++
		c.stats.ColdBoots++
		c.mu.Unlock()

		sys, tmpl, err := Capture(img, opts)
		e.tmpl, e.err = tmpl, err
		close(e.ready)
		if err != nil {
			return nil, false, err
		}
		return sys, false, nil
	}
	c.mu.Unlock()

	<-e.ready
	if e.err != nil {
		return nil, false, fmt.Errorf("snapshot: template capture for alias %q failed: %w", alias, e.err)
	}
	e.verifyOnce.Do(func() {
		var bad error
		if k := Key(img); k != e.tmpl.key {
			bad = fmt.Errorf("snapshot: alias %q is not shape-stable: image %q has key %s.., template has %s..",
				alias, img.Name, k[:12], e.tmpl.key[:12])
		}
		c.mu.Lock()
		e.verifies++
		e.badAlias = bad
		c.mu.Unlock()
	})
	c.mu.Lock()
	bad := e.badAlias
	c.mu.Unlock()
	if bad != nil {
		return nil, false, bad
	}
	sys, err = e.tmpl.forkUnchecked(img, opts)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.stats.Forks++
	e.hits++
	c.mu.Unlock()
	return sys, true, nil
}

// Stats returns a copy of the cache's counters, with the per-alias
// breakdown sorted by alias.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Aliases = make([]AliasStats, 0, len(c.entries))
	for alias, e := range c.entries {
		st.Aliases = append(st.Aliases, AliasStats{
			Alias:    alias,
			Misses:   1,
			Hits:     e.hits,
			Verifies: e.verifies,
			Poisoned: e.badAlias != nil,
		})
	}
	sort.Slice(st.Aliases, func(i, j int) bool { return st.Aliases[i].Alias < st.Aliases[j].Alias })
	return st
}
