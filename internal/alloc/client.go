package alloc

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
)

// Client wraps the allocator's compartment-call API for one allocation
// capability. By default it presents one the compartment imports, by its
// sealed-import name AllocCap (for a compartment's own capability, the
// bare name it declared; "" means "default", the convention for
// malloc/free compatibility, §3.2.2). A Client from Delegated presents
// one a caller passed in instead.
type Client struct {
	AllocCap string

	delegated   cap.Capability
	isDelegated bool
}

// DefaultQuota is the conventional name of a compartment's default
// allocation capability, used by the malloc/free compatibility layer.
const DefaultQuota = "default"

// Delegated returns a Client that presents c, an allocation capability a
// caller delegated, so that what a service allocates on the caller's
// behalf is charged to the caller (the quota-delegation pattern of
// §3.2.3). c is presented exactly as given: the allocator refuses a null
// or forged one, and no import ever stands in for it.
func Delegated(c cap.Capability) Client { return Client{delegated: c, isDelegated: true} }

// capability returns the allocation capability the client presents: the
// delegated one, or the sealed import it names.
func (cl Client) capability(ctx api.Context) cap.Capability {
	if cl.isDelegated {
		return cl.delegated
	}
	name := cl.AllocCap
	if name == "" {
		name = DefaultQuota
	}
	return ctx.SealedImport(name)
}

// Malloc allocates size bytes against the client's quota.
func (cl Client) Malloc(ctx api.Context, size uint32) (cap.Capability, api.Errno) {
	rets, err := ctx.Call(Name, EntryAllocate, api.C(cl.capability(ctx)), api.W(size))
	if err != nil {
		return cap.Null(), api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return cap.Null(), e
	}
	return rets[1].Cap, api.OK
}

// Free releases an object (or one claim on it).
func (cl Client) Free(ctx api.Context, obj cap.Capability) api.Errno {
	rets, err := ctx.Call(Name, EntryFree, api.C(cl.capability(ctx)), api.C(obj))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}

// Claim pins obj against this client's quota until a matching Free.
func (cl Client) Claim(ctx api.Context, obj cap.Capability) api.Errno {
	rets, err := ctx.Call(Name, EntryClaim, api.C(cl.capability(ctx)), api.C(obj))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}

// MallocSealed allocates a sealed object whose payload is only reachable
// via token_unseal with the matching key.
func (cl Client) MallocSealed(ctx api.Context, key cap.Capability, size uint32) (cap.Capability, api.Errno) {
	rets, err := ctx.Call(Name, EntryAllocateSealed,
		api.C(cl.capability(ctx)), api.C(key), api.W(size))
	if err != nil {
		return cap.Null(), api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return cap.Null(), e
	}
	return rets[1].Cap, api.OK
}

// FreeSealed releases a sealed object; it needs both the allocation
// capability and the sealing key (§3.2.3).
func (cl Client) FreeSealed(ctx api.Context, key, sobj cap.Capability) api.Errno {
	rets, err := ctx.Call(Name, EntryFreeSealed,
		api.C(cl.capability(ctx)), api.C(key), api.C(sobj))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}

// QuotaRemaining returns the unused bytes of the client's quota.
func (cl Client) QuotaRemaining(ctx api.Context) (uint32, api.Errno) {
	rets, err := ctx.Call(Name, EntryQuotaRemaining, api.C(cl.capability(ctx)))
	if err != nil {
		return 0, api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return 0, e
	}
	return rets[1].AsWord(), api.OK
}

// FreeAll releases everything the quota holds (micro-reboot step 3).
func (cl Client) FreeAll(ctx api.Context) (int, api.Errno) {
	rets, err := ctx.Call(Name, EntryFreeAll, api.C(cl.capability(ctx)))
	if err != nil {
		return 0, api.ErrUnwound
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return 0, e
	}
	return int(rets[1].AsWord()), api.OK
}

// CanFree reports whether Free(obj) would succeed (§3.2.5 input checking).
func (cl Client) CanFree(ctx api.Context, obj cap.Capability) api.Errno {
	rets, err := ctx.Call(Name, EntryCanFree, api.C(cl.capability(ctx)), api.C(obj))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}
