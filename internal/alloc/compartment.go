package alloc

import (
	"cmp"
	"slices"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Entry point names exported by the allocator compartment.
const (
	EntryAllocate       = "heap_allocate"
	EntryFree           = "heap_free"
	EntryClaim          = "heap_claim"
	EntryAllocateSealed = "heap_allocate_sealed"
	EntryFreeSealed     = "heap_free_sealed"
	EntryQuotaRemaining = "heap_quota_remaining"
	EntryFreeAll        = "heap_free_all"
	EntryCanFree        = "heap_can_free"
)

// Table 2 reports the allocator at 9 KB of code and 56 B of data, with 16
// entry points (we model the 8 that the evaluation exercises).
const (
	codeSize = 9000
	dataSize = 56
)

// AddTo registers the allocator compartment in a firmware image.
func (a *Alloc) AddTo(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name:     Name,
		CodeSize: codeSize,
		DataSize: dataSize,
		Exports: []*firmware.Export{
			{Name: EntryAllocate, MinStack: 256, Entry: a.heapAllocate},
			{Name: EntryFree, MinStack: 256, Entry: a.heapFree},
			{Name: EntryClaim, MinStack: 160, Entry: a.heapClaim},
			{Name: EntryAllocateSealed, MinStack: 256, Entry: a.heapAllocateSealed},
			{Name: EntryFreeSealed, MinStack: 256, Entry: a.heapFreeSealed},
			{Name: EntryQuotaRemaining, MinStack: 96, Entry: a.heapQuotaRemaining},
			{Name: EntryFreeAll, MinStack: 256, Entry: a.heapFreeAll},
			{Name: EntryCanFree, MinStack: 96, Entry: a.heapCanFree},
		},
		// Allocations may be delayed until the end of a revocation pass;
		// the allocator defers to the scheduler to sleep (§3.1.3).
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: sched.Name, Entry: sched.EntrySleep},
		},
	})
}

// Imports returns the import entries a compartment needs for the full
// allocator API.
func Imports() []firmware.Import {
	entries := []string{
		EntryAllocate, EntryFree, EntryClaim, EntryAllocateSealed,
		EntryFreeSealed, EntryQuotaRemaining, EntryFreeAll, EntryCanFree,
	}
	out := make([]firmware.Import, 0, len(entries))
	for _, e := range entries {
		out = append(out, firmware.Import{Kind: firmware.ImportCall, Target: Name, Entry: e})
	}
	return out
}

// tokenAuthority seals dynamically-allocated sealed objects with the
// hardware TypeToken object type (§3.2.1).
var tokenAuthority = cap.New(uint32(cap.TypeToken), uint32(cap.TypeToken)+1,
	uint32(cap.TypeToken), cap.PermSeal|cap.PermUnseal)

// heapAllocate(allocCap, size) -> (errno, objectCap)
func (a *Alloc) heapAllocate(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	size := alignUp(args[1].AsWord())
	if size == 0 || size > a.heap.Size {
		return api.EV(api.ErrInvalid)
	}
	base, errno := a.allocate(ctx, recAddr, q, size)
	if errno != api.OK {
		return api.EV(errno)
	}
	a.newRecord(base, size, recAddr, 0)
	a.emitAlloc(ctx, EntryAllocate, q, base, size)
	return ctx.Ret(api.W(uint32(api.OK)), api.C(a.objectCap(base, size)))
}

// emitAlloc emits the allocation event of entry, creating the flight
// recorder's heap-region provenance root on first use.
func (a *Alloc) emitAlloc(ctx api.Context, entry string, q *quota, base, size uint32) {
	if a.heapNode == 0 {
		a.heapNode = ctx.Emit(telemetry.Event{Kind: telemetry.KindRoot, To: Name,
			Detail: "shared heap", Arg: uint64(a.heap.Base), Arg2: uint64(a.heap.Top())})
	}
	ctx.Emit(telemetry.Event{Kind: telemetry.KindAlloc, To: q.owner, Entry: entry,
		Detail: q.name, Parent: a.heapNode, Arg: uint64(size), Arg2: uint64(base)})
}

// allocate reserves size bytes against q, waiting for revocation passes
// when the heap is exhausted but quarantined memory could satisfy the
// request (§3.1.3).
func (a *Alloc) allocate(ctx api.Context, recAddr uint32, q *quota, size uint32) (uint32, api.Errno) {
	if q.used+size > q.limit || q.used+size < q.used {
		return 0, api.ErrNoMemory
	}
	ctx.Work(hw.MallocFixedCycles)
	a.drainQuarantine(quarantineDrainPerOp)
	const maxWaits = 64
	for attempt := 0; ; attempt++ {
		if base, ok := a.takeFree(size); ok {
			q.used += size
			a.allocCount++
			if tel := a.tel(); tel != nil {
				tel.Counter(Name, "mallocs").Inc()
				tel.Histogram(Name, "size_bytes", telemetry.DefaultSizeBuckets).Observe(uint64(size))
			}
			return base, api.OK
		}
		if a.totalFreeable() < size || attempt >= maxWaits {
			return 0, api.ErrNoMemory
		}
		// Block until the revoker makes progress, then drain and retry.
		a.sweepWaits++
		a.tel().Counter(Name, "sweep_waits").Inc()
		rev := a.k.Core.Revoker
		if !rev.Running() {
			rev.Request()
		}
		slice := rev.SweepCycles() / 4
		if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(uint32(slice))); err != nil {
			return 0, api.ErrNoMemory
		}
		a.drainQuarantine(a.quarantine.Len() + len(a.pending))
	}
}

// heapFree(allocCap, objectCap) -> errno. Freeing requires an allocation
// capability matching one used to allocate or claim the object (§3.2.2);
// releasing a claim that is not the last is cheap, the final release
// quarantines the memory.
func (a *Alloc) heapFree(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	meta := a.lookup(args[1].Cap)
	if meta == nil {
		return api.EV(api.ErrInvalid)
	}
	if meta.sealType != 0 {
		// Sealed objects are freed only through heap_free_sealed, which
		// additionally demands the virtual sealing key (§3.2.3).
		return api.EV(api.ErrNotPermitted)
	}
	return api.EV(a.release(ctx, recAddr, q, meta))
}

// release drops one ownership reference of meta held by q.
func (a *Alloc) release(ctx api.Context, recAddr uint32, q *quota, meta *allocation) api.Errno {
	if meta.refs(recAddr) == 0 {
		return api.ErrNotPermitted
	}
	meta.drop(recAddr)
	q.used -= meta.size
	if meta.totalOwners() > 0 {
		// A claim release, not the final free.
		ctx.Work(hw.HeapClaimCycles)
		return api.OK
	}
	ctx.Work(hw.FreeFixedCycles)
	base, size := meta.base, meta.size
	a.freeRecord(meta)
	a.freeCount++
	a.tel().Counter(Name, "frees").Inc()
	ctx.Emit(telemetry.Event{Kind: telemetry.KindFree, From: q.owner,
		Arg: uint64(size), Arg2: uint64(base)})
	if hazardCovers(a.k.HazardSlots(), base, size) {
		// An ephemeral claim pins the object; the free completes when the
		// claim lapses (§3.2.5).
		a.pending = append(a.pending, qEntry{base: base, size: size,
			epoch: a.k.Core.Revoker.Epoch()})
	} else {
		a.quarantineRange(base, size)
	}
	a.drainQuarantine(quarantineDrainPerOp)
	return api.OK
}

// heapClaim(allocCap, objectCap) -> errno. A claim prevents the object
// from being freed out from under the claimant until released; it charges
// the claimant's quota (§3.2.5).
func (a *Alloc) heapClaim(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	meta := a.lookup(args[1].Cap)
	if meta == nil {
		return api.EV(api.ErrInvalid)
	}
	if q.used+meta.size > q.limit {
		return api.EV(api.ErrNoMemory)
	}
	base, size, gen := meta.base, meta.size, meta.gen
	ctx.Work(hw.HeapClaimCycles)
	if meta.gen == gen {
		meta.claim(recAddr)
		q.used += size
		ctx.Emit(telemetry.Event{Kind: telemetry.KindClaim, To: q.owner,
			Arg: uint64(size), Arg2: uint64(base)})
	}
	// Otherwise another thread made the object's final free during the
	// work above, and the record may describe another object by now: the
	// claim lands on no object, charges nothing and records nothing.
	return api.EV(api.OK)
}

// heapAllocateSealed(allocCap, keyCap, size) -> (errno, sealedCap). The
// object carries a protected header holding the key's virtual sealing
// type; only token_unseal with a matching key reaches the payload
// (§3.2.1).
func (a *Alloc) heapAllocateSealed(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	key := args[1].Cap
	if !key.Valid() || key.Sealed() || !key.Perms().Has(cap.PermSeal) {
		return api.EV(api.ErrNotPermitted)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	if args[2].AsWord() == 0 || args[2].AsWord() > a.heap.Size-sealedHeaderBytes {
		return api.EV(api.ErrInvalid)
	}
	// Header plus payload, rounded to a representable capability length.
	size := alignUp(args[2].AsWord() + sealedHeaderBytes)
	base, errno := a.allocate(ctx, recAddr, q, size)
	if errno != api.OK {
		return api.EV(errno)
	}
	ctx.Work(hw.AllocSealedExtraCycles)
	vt := key.Address()
	a.newRecord(base, size, recAddr, vt)
	// Write the protected header.
	if err := a.k.Core.Mem.Store32(a.root.WithAddress(base), vt); err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	sealed, err := a.objectCap(base, size).Seal(tokenAuthority)
	if err != nil {
		panic(hw.TrapFromCapError(err, base))
	}
	a.emitAlloc(ctx, EntryAllocateSealed, q, base, size)
	ctx.Emit(telemetry.Event{Kind: telemetry.KindSeal, To: q.owner,
		Detail: EntryAllocateSealed, Arg: uint64(sealed.Base())})
	return ctx.Ret(api.W(uint32(api.OK)), api.C(sealed))
}

// heapFreeSealed(allocCap, keyCap, sealedCap) -> errno. Deallocating a
// sealed object requires both the matching allocation capability and the
// virtual sealing key, which is how quota-delegating APIs stop their
// callers from freeing memory out from under them (§3.2.3).
func (a *Alloc) heapFreeSealed(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap || !args[2].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	key := args[1].Cap
	meta := a.lookup(args[2].Cap)
	if meta == nil || meta.sealType == 0 {
		return api.EV(api.ErrInvalid)
	}
	if !key.Valid() || !key.Perms().Has(cap.PermUnseal) || key.Address() != meta.sealType {
		return api.EV(api.ErrNotPermitted)
	}
	return api.EV(a.release(ctx, recAddr, q, meta))
}

// heapQuotaRemaining(allocCap) -> (errno, bytes)
func (a *Alloc) heapQuotaRemaining(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	_, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(q.limit-q.used))
}

// heapFreeAll(allocCap) -> (errno, objectsReleased). It releases every
// reference the quota holds — the micro-reboot step that returns all of a
// compartment's heap memory (§3.2.6 step 3).
func (a *Alloc) heapFreeAll(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.UnsealObjectCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	type victim struct {
		meta *allocation
		gen  uint32
	}
	var victims []victim
	for _, meta := range a.allocs {
		if meta.refs(recAddr) > 0 {
			victims = append(victims, victim{meta, meta.gen})
		}
	}
	// The map iterates in no fixed order; releasing in base order keeps
	// the frees, their events and the quarantine the same on every run.
	slices.SortFunc(victims, func(x, y victim) int { return cmp.Compare(x.meta.base, y.meta.base) })
	released := 0
	for _, v := range victims {
		// A release's work is a preemption point, at which another thread
		// holding the quota may free a later victim and reuse its record
		// for a new object, which this call leaves alone.
		for v.meta.gen == v.gen && v.meta.refs(recAddr) > 0 {
			if a.release(ctx, recAddr, q, v.meta) != api.OK {
				break
			}
		}
		released++
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(uint32(released)))
}

// heapCanFree(allocCap, objectCap) -> errno reports whether a free with
// this allocation capability would succeed — one of the §3.2.5
// input-checking helpers.
func (a *Alloc) heapCanFree(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.CheckPointerCycles)
	recAddr, q := a.unsealQuota(args[0].Cap)
	if q == nil {
		return api.EV(api.ErrNotPermitted)
	}
	meta := a.lookup(args[1].Cap)
	if meta == nil {
		return api.EV(api.ErrInvalid)
	}
	if meta.refs(recAddr) == 0 {
		return api.EV(api.ErrNotPermitted)
	}
	return api.EV(api.OK)
}
