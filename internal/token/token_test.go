package token_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/token"
)

// run boots a single-compartment image whose main runs fn.
func run(t *testing.T, fn func(ctx api.Context)) {
	t.Helper()
	img := core.NewImage("token-test")
	token.AddLibTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports: append(append(alloc.Imports(), token.Imports()...),
			token.LibImports()...),
		Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				fn(ctx)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 8192, TrustedStackFrames: 12})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestKeysAreDistinct(t *testing.T) {
	run(t, func(ctx api.Context) {
		k1, _ := token.KeyNew(ctx)
		k2, _ := token.KeyNew(ctx)
		if k1.Address() == k2.Address() {
			t.Error("two keys share a virtual sealing type")
		}
		if !k1.Perms().Has(cap.PermSeal) || !k1.Perms().Has(cap.PermUnseal) {
			t.Error("key missing seal/unseal authority")
		}
	})
}

func TestUnsealFastMatchesCompartmentPath(t *testing.T) {
	run(t, func(ctx api.Context) {
		key, _ := token.KeyNew(ctx)
		sobj, errno := (alloc.Client{}).MallocSealed(ctx, key, 32)
		if errno != api.OK {
			t.Errorf("malloc_sealed: %v", errno)
			return
		}
		slow, e1 := token.Unseal(ctx, key, sobj)
		rets := ctx.LibCall(token.LibName, token.FnUnsealFast, api.C(key), api.C(sobj))
		if e1 != api.OK || api.ErrnoOf(rets) != api.OK {
			t.Errorf("unseal paths: %v / %v", e1, api.ErrnoOf(rets))
			return
		}
		fast := rets[1].Cap
		if !slow.Equal(fast) {
			t.Errorf("fast path %v != compartment path %v", fast, slow)
		}
		// The payload excludes the protected header.
		if slow.Base()-sobj.Base() != 8 {
			t.Errorf("payload not offset past header: %v vs %v", slow, sobj)
		}
	})
}

func TestUnsealRejectsWrongKeyAndAttenuatedKey(t *testing.T) {
	run(t, func(ctx api.Context) {
		key, _ := token.KeyNew(ctx)
		other, _ := token.KeyNew(ctx)
		sobj, _ := (alloc.Client{}).MallocSealed(ctx, key, 32)
		if _, errno := token.Unseal(ctx, other, sobj); errno == api.OK {
			t.Error("unsealed with the wrong key")
		}
		// A key with PermUnseal stripped can no longer unseal (a holder
		// may attenuate a key to seal-only before sharing).
		sealOnly, _ := key.AndPerms(cap.PermSeal)
		if _, errno := token.Unseal(ctx, sealOnly, sobj); errno == api.OK {
			t.Error("unsealed with a seal-only key")
		}
		// The untampered key still works.
		if _, errno := token.Unseal(ctx, key, sobj); errno != api.OK {
			t.Errorf("owner unseal: %v", errno)
		}
	})
}

func TestUnsealRejectsNonTokenObjects(t *testing.T) {
	run(t, func(ctx api.Context) {
		key, _ := token.KeyNew(ctx)
		// An unsealed capability is not a token object.
		plain, _ := (alloc.Client{}).Malloc(ctx, 32)
		if _, errno := token.Unseal(ctx, key, plain); errno == api.OK {
			t.Error("unsealed a plain capability")
		}
		// Something sealed with a different hardware type is rejected too.
		auth := cap.New(uint32(cap.TypeUser0), uint32(cap.TypeUser0)+1,
			uint32(cap.TypeUser0), cap.PermSeal)
		foreign, err := plain.Seal(auth)
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		if _, errno := token.Unseal(ctx, key, foreign); errno == api.OK {
			t.Error("unsealed a foreign-type object")
		}
	})
}

// TestUnsealAllocatesNothing pins token_unseal at zero host allocations,
// through the compartment and through the library: the payload comes
// back in return registers.
func TestUnsealAllocatesNothing(t *testing.T) {
	var slow, fast float64
	run(t, func(ctx api.Context) {
		key, _ := token.KeyNew(ctx)
		sobj, errno := (alloc.Client{}).MallocSealed(ctx, key, 32)
		if errno != api.OK {
			t.Errorf("malloc_sealed: %v", errno)
			return
		}
		slow = testing.AllocsPerRun(100, func() {
			if _, errno := token.Unseal(ctx, key, sobj); errno != api.OK {
				t.Errorf("unseal: %v", errno)
			}
		})
		fast = testing.AllocsPerRun(100, func() {
			rets := ctx.LibCall(token.LibName, token.FnUnsealFast, api.C(key), api.C(sobj))
			if errno := api.ErrnoOf(rets); errno != api.OK {
				t.Errorf("library unseal: %v", errno)
			}
		})
	})
	if slow != 0 || fast != 0 {
		t.Fatalf("token_unseal allocates %.1f objects, the library version %.1f, want 0 and 0", slow, fast)
	}
}
