// Package alloc implements the shared-heap allocator of the TCB (§3.1.3).
//
// The allocator exposes a spatially- and temporally-safe heap shared by
// every compartment. Authority to allocate is an allocation capability — a
// sealed token carrying a quota (§3.2.2). Freed memory is quarantined with
// its revocation bits set (use traps immediately via the load filter) and
// is reused only after a full revocation sweep proves no capability to it
// survives anywhere in memory. The allocator alone holds a capability that
// bypasses the load filter, making it the only component able to touch
// freed memory, which is how free-time zeroing persists to reuse.
package alloc

import (
	"sort"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/fifo"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/loader"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Name is the allocator's compartment name.
const Name = loader.AllocatorCompartment

// sealedHeaderBytes is the protected header of a dynamically-allocated
// sealed object: one word of virtual sealing type plus padding to granule
// alignment (§3.2.1).
const sealedHeaderBytes = 8

// quarantineDrainPerOp bounds how many quarantined objects each malloc or
// free tries to release: a small constant, so allocator run time stays
// bounded for soft real-time use, and more than one, so the quarantine
// eventually drains (§3.1.3).
const quarantineDrainPerOp = 2

// quota is the allocator-private record behind a sealed allocation
// capability.
type quota struct {
	limit uint32
	used  uint32
	owner string
	name  string
}

// allocation is the allocator's in-band metadata for one live object.
// Records come from a slab (newRecord) and go back on its spare list
// when the object is freed, which bumps gen: an entry that holds a record
// across a preemption point compares gen to tell whether the object it
// looked up was freed meanwhile, the record perhaps reused for another.
type allocation struct {
	gen  uint32
	base uint32
	size uint32
	// sealType is the virtual sealing type for sealed objects, 0 for
	// plain allocations.
	sealType uint32
	// owner is the quota-record address of the allocating capability and
	// claims its references, the first of which the allocation holds;
	// more counts every other quota's references, made on the first claim
	// through a second quota. The object is freed when no reference
	// remains (§3.2.5). claims is 32 bits wide, which keeps the record
	// at 32 bytes beside gen.
	owner  uint32
	claims int32
	more   map[uint32]int
}

// refs returns the references the quota at rec holds.
func (a *allocation) refs(rec uint32) int {
	if rec == a.owner {
		return int(a.claims)
	}
	return a.more[rec]
}

// claim adds a reference held by the quota at rec.
func (a *allocation) claim(rec uint32) {
	if rec == a.owner {
		a.claims++
		return
	}
	if a.more == nil {
		a.more = make(map[uint32]int)
	}
	a.more[rec]++
}

// drop removes one of the references the quota at rec holds.
func (a *allocation) drop(rec uint32) {
	if rec == a.owner {
		a.claims--
		return
	}
	if a.more[rec]--; a.more[rec] == 0 {
		delete(a.more, rec)
	}
}

func (a *allocation) totalOwners() int {
	n := int(a.claims)
	for _, c := range a.more {
		n += c
	}
	return n
}

// qEntry is one quarantined (freed, not yet reusable) range.
type qEntry struct {
	base  uint32
	size  uint32
	epoch uint64 // revocation epoch at free time
}

// block is a free range.
type block struct {
	base uint32
	size uint32
}

// Alloc is the allocator compartment's state.
type Alloc struct {
	k    *switcher.Kernel
	root cap.Capability // heap root with PermUser0
	heap firmware.Region

	free       []block // sorted by base, coalesced
	quarantine fifo.Queue[qEntry]
	pending    []qEntry // frees deferred by ephemeral claims
	quotas     map[uint32]*quota
	allocs     map[uint32]*allocation
	// slab is the unused tail of the newest chunk of records and spare
	// the records of freed objects; newRecord takes from spare first.
	slab  []allocation
	spare []*allocation

	// stats for the evaluation harness
	allocCount, freeCount uint64
	sweepWaits            uint64

	// heapNode is the flight recorder's provenance root for the heap
	// region, created lazily on the first recorded allocation.
	heapNode uint32
}

// New returns an unattached allocator. After boot, core installs it as
// the allocator compartment's state and attaches it.
func New() *Alloc {
	return &Alloc{
		quotas: make(map[uint32]*quota),
		allocs: make(map[uint32]*allocation),
	}
}

// Attach wires the allocator to the booted kernel: it takes the privileged
// heap root, initializes the free list to the whole heap, and ingests the
// loader's quota records.
func (a *Alloc) Attach(k *switcher.Kernel, quotas []loader.QuotaRecord) {
	a.k = k
	root, ok := k.AllocatorRoot(Name)
	if !ok {
		panic("alloc: kernel did not grant the heap root")
	}
	a.root = root
	a.heap = k.HeapRegion()
	a.free = []block{{base: a.heap.Base, size: a.heap.Size}}
	for _, q := range quotas {
		a.quotas[q.Addr] = &quota{limit: q.Limit, owner: q.Owner, name: q.Name}
	}
}

// Stats reports allocator counters for the benchmarks.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	SweepWaits uint64
	Quarantine int
	FreeBytes  uint32
}

// Stats returns a snapshot of the allocator's counters.
func (a *Alloc) Stats() Stats {
	var freeBytes uint32
	for _, b := range a.free {
		freeBytes += b.size
	}
	return Stats{
		Allocs: a.allocCount, Frees: a.freeCount, SweepWaits: a.sweepWaits,
		Quarantine: a.quarantine.Len(), FreeBytes: freeBytes,
	}
}

// unsealAuthority is the allocator's authority over the allocation-
// capability sealing type, installed conceptually by the loader.
var unsealAuthority = cap.New(uint32(cap.TypeAllocator), uint32(cap.TypeAllocator)+1,
	uint32(cap.TypeAllocator), cap.PermSeal|cap.PermUnseal)

// unsealQuota validates a sealed allocation capability and returns its
// quota record.
func (a *Alloc) unsealQuota(sealed cap.Capability) (uint32, *quota) {
	rec, err := sealed.Unseal(unsealAuthority)
	if err != nil {
		return 0, nil
	}
	q := a.quotas[rec.Base()]
	return rec.Base(), q
}

const granule = cap.GranuleSize

// alignUp rounds a request up to a representable capability length: the
// compressed bounds encoding (§2.1, internal/cap/encoding.go) cannot
// express arbitrary [base, length) pairs, so the allocator — like the real
// one — rounds sizes and aligns bases.
func alignUp(n uint32) uint32 {
	if n < granule {
		n = granule
	}
	return cap.RepresentableLength(n)
}

// takeFree carves size bytes from the free list, first fit, at the
// alignment the capability encoding demands for that size. A misaligned
// prefix of the chosen block stays on the free list.
func (a *Alloc) takeFree(size uint32) (uint32, bool) {
	align := cap.RepresentableAlignment(size)
	for i := range a.free {
		b := a.free[i]
		base := (b.base + align - 1) &^ (align - 1)
		pad := base - b.base
		if b.size < pad+size {
			continue
		}
		// Remove the block, then return the unused prefix and suffix.
		a.free = append(a.free[:i], a.free[i+1:]...)
		if pad > 0 {
			a.giveFree(b.base, pad)
		}
		if tail := b.size - pad - size; tail > 0 {
			a.giveFree(base+size, tail)
		}
		return base, true
	}
	return 0, false
}

// giveFree returns a range to the free list, coalescing neighbours.
func (a *Alloc) giveFree(base, size uint32) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= base })
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = block{base: base, size: size}
	// Coalesce with the right neighbour, then the left.
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// totalFreeable returns bytes that could ever become available: free list
// plus quarantine plus deferred frees.
func (a *Alloc) totalFreeable() uint32 {
	var n uint32
	for _, b := range a.free {
		n += b.size
	}
	for i := range a.quarantine.Len() {
		n += a.quarantine.At(i).size
	}
	for _, p := range a.pending {
		n += p.size
	}
	return n
}

// drainQuarantine releases up to max quarantined ranges whose revocation
// sweep has completed, clearing their revocation bits and returning them
// to the free list. It also retries deferred (hazard-blocked) frees.
func (a *Alloc) drainQuarantine(max int) {
	a.retryPending()
	rev := a.k.Core.Revoker
	released := 0
	for released < max && a.quarantine.Len() > 0 {
		e := a.quarantine.At(0)
		if !rev.EpochsElapsedSince(e.epoch) {
			break // quarantine is FIFO in epoch order
		}
		a.quarantine.Pop()
		a.k.Core.Mem.ClearRevoked(e.base, e.size)
		a.k.Core.Tick(uint64(e.size/granule) * hw.RevBitCyclesPerGranule)
		a.giveFree(e.base, e.size)
		released++
		a.k.Emit(telemetry.Event{Kind: telemetry.KindRelease, To: Name, Arg: uint64(e.size)})
	}
	// Keep the revoker busy while there is anything left to reclaim.
	if a.quarantine.Len() > 0 && !rev.Running() {
		rev.Request()
	}
}

// retryPending moves hazard-deferred frees whose claims have lapsed into
// quarantine proper.
func (a *Alloc) retryPending() {
	if len(a.pending) == 0 {
		return
	}
	hazards := a.k.HazardSlots()
	still := a.pending[:0]
	for _, p := range a.pending {
		if hazardCovers(hazards, p.base, p.size) {
			still = append(still, p)
			continue
		}
		a.quarantineRange(p.base, p.size)
	}
	a.pending = still
}

func hazardCovers(hazards []cap.Capability, base, size uint32) bool {
	for _, h := range hazards {
		if h.Base() >= base && h.Base() < base+size {
			return true
		}
	}
	return false
}

// quarantineRange zeroes a freed range, sets its revocation bits, and
// appends it to the quarantine (§3.1.3: erase objects in free, revoke).
func (a *Alloc) quarantineRange(base, size uint32) {
	if err := a.k.Core.Mem.Zero(a.root.WithAddress(base), size); err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	a.k.Core.Tick(hw.ZeroCost(size))
	a.k.Core.Mem.Revoke(base, size)
	a.k.Core.Tick(uint64(size/granule) * hw.RevBitCyclesPerGranule)
	a.quarantine.Push(qEntry{base: base, size: size, epoch: a.k.Core.Revoker.Epoch()})
	a.k.Emit(telemetry.Event{Kind: telemetry.KindQuarantine, To: Name, Arg: uint64(size)})
	if !a.k.Core.Revoker.Running() {
		a.k.Core.Revoker.Request()
	}
}

// objectCap derives the caller-facing capability for an allocation: full
// data rights, but never the allocator's PermUser0 or PermStoreLocal. The
// bounds are exact by construction (takeFree aligned them), which
// SetBoundsExact asserts.
func (a *Alloc) objectCap(base, size uint32) cap.Capability {
	c, err := a.root.WithAddress(base).SetBoundsExact(size)
	if err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	c, err = c.AndPerms(cap.PermData)
	if err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	return c
}

// newRecord records a live allocation holding one reference of the
// quota at owner. The slab grows a chunk at a time, each as large as the
// live records (4 to 64), so a device that allocates little keeps a small
// slab.
func (a *Alloc) newRecord(base, size, owner, sealType uint32) {
	var r *allocation
	if n := len(a.spare); n > 0 {
		r, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]allocation, min(max(len(a.allocs), 4), 64))
		}
		r, a.slab = &a.slab[0], a.slab[1:]
	}
	*r = allocation{gen: r.gen, base: base, size: size, owner: owner, claims: 1, sealType: sealType}
	a.allocs[base] = r
}

// freeRecord forgets a freed allocation and keeps its record, a
// generation on, for reuse.
func (a *Alloc) freeRecord(r *allocation) {
	delete(a.allocs, r.base)
	*r = allocation{gen: r.gen + 1}
	a.spare = append(a.spare, r)
}

// lookup resolves an object capability to its allocation metadata. The
// capability's base must be the allocation base (sub-object capabilities
// cannot free, matching the ISA guarantee that base stays within the
// original allocation only for the original pointer).
func (a *Alloc) lookup(obj cap.Capability) *allocation {
	if !obj.Valid() {
		return nil
	}
	return a.allocs[obj.Base()]
}
