package token

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
)

// Sealer is the opaque-handle lifecycle of a compartment that hands its
// callers handles to state it keeps for them (§3.2.1, §3.2.3): each
// handle is an object sealed under the compartment's own virtual key and
// allocated on the caller's delegated quota, so the caller pays for it
// but can neither read nor free it, and the compartment unseals it on
// every call that presents it. The compartment keeps one Sealer in its
// state; the zero Sealer is ready to use. Its methods mirror the RTOS's
// token_key_new, token_sealed_unsealed_alloc, token_obj_unseal and
// token_obj_destroy. A step whose key cannot be minted fails with
// token_key_new's errno and calls nothing more.
type Sealer struct {
	key cap.Capability
}

// Key returns the compartment's key, minting it with token_key_new on
// first use.
func (s *Sealer) Key(ctx api.Context) (cap.Capability, api.Errno) {
	if !s.key.Valid() {
		k, errno := KeyNew(ctx)
		if errno != api.OK {
			return cap.Null(), errno
		}
		s.key = k
	}
	return s.key, api.OK
}

// New allocates a handle with a size-byte payload on the delegated
// quota and returns it with a capability to its payload. A New that
// fails leaves nothing allocated.
func (s *Sealer) New(ctx api.Context, quota cap.Capability, size uint32) (handle, payload cap.Capability, errno api.Errno) {
	key, errno := s.Key(ctx)
	if errno != api.OK {
		return cap.Null(), cap.Null(), errno
	}
	cl := alloc.Delegated(quota)
	if handle, errno = cl.MallocSealed(ctx, key, size); errno != api.OK {
		return cap.Null(), cap.Null(), errno
	}
	if payload, errno = Unseal(ctx, key, handle); errno != api.OK {
		_ = cl.FreeSealed(ctx, key, handle)
		return cap.Null(), cap.Null(), errno
	}
	return handle, payload, api.OK
}

// Open unseals a handle a caller presents and returns its payload, or
// token_unseal's errno for a handle the compartment did not issue.
func (s *Sealer) Open(ctx api.Context, handle cap.Capability) (cap.Capability, api.Errno) {
	key, errno := s.Key(ctx)
	if errno != api.OK {
		return cap.Null(), errno
	}
	return Unseal(ctx, key, handle)
}

// Free releases a handle's object back to the delegated quota it was
// allocated on; heap_free_sealed demands both that quota and the key.
func (s *Sealer) Free(ctx api.Context, quota, handle cap.Capability) api.Errno {
	key, errno := s.Key(ctx)
	if errno != api.OK {
		return errno
	}
	return alloc.Delegated(quota).FreeSealed(ctx, key, handle)
}
