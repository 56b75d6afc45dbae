// Package token implements the token API compartment (§3.2.1): it
// virtualizes sealing on top of the single hardware sealing type it has
// exclusive access to, lifting the seven-type limit of the capability
// encoding so every pair of compartments can share opaque objects without
// being able to unseal each other's.
package token

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Name is the token API's compartment name.
const Name = "token"

// Entry point names.
const (
	EntryUnseal = "token_unseal"
	EntryKeyNew = "token_key_new"
)

// FirstVirtualType is the first dynamically-allocated virtual sealing
// type. The space is disjoint from memory addresses only by convention —
// keys are never dereferenced.
const FirstVirtualType = 0x0001_0000

// hwAuthority is the token API's exclusive authority over the hardware
// TypeToken sealing type.
var hwAuthority = cap.New(uint32(cap.TypeToken), uint32(cap.TypeToken)+1,
	uint32(cap.TypeToken), cap.PermSeal|cap.PermUnseal)

// Token is the token API compartment's state.
type Token struct {
	nextType uint32
}

// New returns a token API instance.
func New() *Token { return &Token{nextType: FirstVirtualType} }

// AddTo registers the token compartment in a firmware image.
func (t *Token) AddTo(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name:     Name,
		CodeSize: 900,
		DataSize: 16,
		Exports: []*firmware.Export{
			{Name: EntryUnseal, MinStack: 96, Entry: t.unseal},
			{Name: EntryKeyNew, MinStack: 96, Entry: t.keyNew},
		},
	})
}

// Imports returns the import entries for the token API.
func Imports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryUnseal},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryKeyNew},
	}
}

// unseal(key, sobj) -> (errno, payloadCap) checks that the key authorizes
// the sealed object's virtual type and returns a capability to the
// payload, exclusive of the protected header (§3.2.1).
func (t *Token) unseal(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	key, sobj := args[0].Cap, args[1].Cap
	ctx.Work(hw.UnsealObjectCycles)
	// The key must be a tagged capability with permit-unseal whose cursor
	// is the virtual sealing type.
	if !key.Valid() || key.Sealed() || !key.Perms().Has(cap.PermUnseal) {
		return api.EV(api.ErrNotPermitted)
	}
	// The object must be sealed with the token API's hardware type.
	obj, err := sobj.Unseal(hwAuthority)
	if err != nil {
		emitUnseal(ctx, false)
		return api.EV(api.ErrInvalid)
	}
	// The header stores the virtual type; it must match the key.
	header := obj.WithAddress(obj.Base())
	vt := ctx.Load32(header)
	if vt != key.Address() {
		emitUnseal(ctx, false)
		return api.EV(api.ErrNotPermitted)
	}
	emitUnseal(ctx, true)
	payload, err := obj.WithAddress(obj.Base() + 8).SetBounds(obj.Length() - 8)
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.C(payload))
}

// keyNew() -> (errno, keyCap) mints a fresh virtual sealing type (§3.2.1).
// The key carries both seal and unseal authority; holders can attenuate it
// with cap.AndPerms before sharing.
func (t *Token) keyNew(ctx api.Context, args []api.Value) []api.Value {
	ctx.Work(hw.AllocKeyCycles)
	vt := t.nextType
	t.nextType++
	key := cap.New(vt, vt+1, vt, cap.PermSeal|cap.PermUnseal)
	ctx.Emit(telemetry.Event{Kind: telemetry.KindSeal, To: Name, Detail: "token_key_new", Arg: uint64(key.Base())})
	return ctx.Ret(api.W(uint32(api.OK)), api.C(key))
}

// emitUnseal records an unsealing attempt by the caller; ok reports
// whether the key matched.
func emitUnseal(ctx api.Context, ok bool) {
	ev := telemetry.Event{Kind: telemetry.KindUnseal, From: ctx.Caller(), To: Name}
	if ok {
		ev.Arg = 1
	}
	ctx.Emit(ev)
}

// LibName is the token fast-path shared library. Unsealing is frequent
// (it happens on every opaque-object API call) and needs no state of its
// own, only the sealing authority — so, as in the real RTOS, a library
// version avoids the compartment-call cost (Table 3's 44.8-cycle unseal).
const LibName = "tokenlib"

// FnUnsealFast is the library unseal function.
const FnUnsealFast = "token_obj_unseal"

// AddLibTo registers the token fast-path library in an image.
func AddLibTo(img *firmware.Image) {
	img.AddLibrary(&firmware.Library{
		Name:     LibName,
		CodeSize: 180,
		Funcs: []*firmware.Export{
			{Name: FnUnsealFast, Entry: unsealFast},
		},
	})
}

// LibImports returns the import for the fast-path library.
func LibImports() []firmware.Import {
	return []firmware.Import{{Kind: firmware.ImportLib, Target: LibName, Entry: FnUnsealFast}}
}

// unsealFast is the library body: identical checks to the compartment
// entry, minus the domain transition.
func unsealFast(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	key, sobj := args[0].Cap, args[1].Cap
	ctx.Work(hw.UnsealObjectCycles - hw.LibCallCycles)
	if !key.Valid() || key.Sealed() || !key.Perms().Has(cap.PermUnseal) {
		return api.EV(api.ErrNotPermitted)
	}
	obj, err := sobj.Unseal(hwAuthority)
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	header := obj.WithAddress(obj.Base())
	if ctx.Load32(header) != key.Address() {
		return api.EV(api.ErrNotPermitted)
	}
	payload, err := obj.WithAddress(obj.Base() + 8).SetBounds(obj.Length() - 8)
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.C(payload))
}

// Unseal is the client helper for token_unseal.
func Unseal(ctx api.Context, key, sobj cap.Capability) (cap.Capability, api.Errno) {
	rets, err := ctx.Call(Name, EntryUnseal, api.C(key), api.C(sobj))
	if err != nil {
		return cap.Null(), api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return cap.Null(), e
	}
	return rets[1].Cap, api.OK
}

// KeyNew is the client helper for token_key_new.
func KeyNew(ctx api.Context) (cap.Capability, api.Errno) {
	rets, err := ctx.Call(Name, EntryKeyNew)
	if err != nil {
		return cap.Null(), api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return cap.Null(), e
	}
	return rets[1].Cap, api.OK
}
