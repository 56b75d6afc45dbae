package libs

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// CheckLib is the pointer-checking / capability-de-privileging shared
// library: the interface-hardening helpers of §3.2.5. Checking inputs
// prevents faults instead of recovering from them; de-privileging before
// sharing prevents information leaks and TOCTOU modification.
const CheckLib = "cheri_helpers"

// Check/de-privilege function names.
const (
	FnCheckPointer = "check_pointer"
	FnIsSealed     = "is_sealed"
)

// AddCheckTo registers the helper library in an image.
func AddCheckTo(img *firmware.Image) {
	img.AddLibrary(&firmware.Library{
		Name:     CheckLib,
		CodeSize: 260,
		Funcs: []*firmware.Export{
			{Name: FnCheckPointer, Entry: checkPointerFn},
			{Name: FnIsSealed, Entry: isSealedFn},
		},
	})
}

// CheckImports returns the imports for the helper library.
func CheckImports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportLib, Target: CheckLib, Entry: FnCheckPointer},
		{Kind: firmware.ImportLib, Target: CheckLib, Entry: FnIsSealed},
	}
}

// checkPointerFn(c, perms, minLength) validates an untrusted pointer
// argument: tagged, unsealed, carrying the permissions, and long enough.
func checkPointerFn(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 {
		return api.EV(api.ErrInvalid)
	}
	ctx.Work(hw.CheckPointerCycles)
	if !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	c := args[0].Cap
	if c.CheckAccess(cap.Perm(args[1].AsWord()), args[2].AsWord()) != nil {
		return api.EV(api.ErrInvalid)
	}
	return api.EV(api.OK)
}

// isSealedFn(c) reports whether a capability is sealed.
func isSealedFn(ctx api.Context, args []api.Value) []api.Value {
	ctx.Work(hw.CheckPointerCycles)
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	if args[0].Cap.Sealed() {
		return ctx.Ret(api.W(1))
	}
	return ctx.Ret(api.W(0))
}

// CheckPointer is the in-compartment fast path used by hardened entry
// points: validate an untrusted pointer argument before touching it.
func CheckPointer(ctx api.Context, c cap.Capability, need cap.Perm, minLen uint32) bool {
	ctx.Work(hw.CheckPointerCycles)
	return c.CheckAccess(need, minLen) == nil
}

// ReadOnly deeply de-privileges a capability before sharing: no store, no
// permit-load-mutable, so nothing reachable through it can be written
// (§3.2.5 "thwarting information leaks").
func ReadOnly(ctx api.Context, c cap.Capability) (cap.Capability, bool) {
	ctx.Work(hw.DeprivilegeCycles)
	ro, err := c.ReadOnly()
	return ro, err == nil
}

// NoCapture deeply de-privileges a capability so the callee cannot retain
// it or anything loaded through it (§2.1, used for allocation-capability
// delegation in §3.2.3).
func NoCapture(ctx api.Context, c cap.Capability) (cap.Capability, bool) {
	ctx.Work(hw.DeprivilegeCycles)
	nc, err := c.NoCapture()
	return nc, err == nil
}

// Tighten narrows a capability's bounds around a payload before sharing
// it across a trust boundary.
func Tighten(ctx api.Context, c cap.Capability, addr, length uint32) (cap.Capability, bool) {
	ctx.Work(hw.DeprivilegeCycles)
	nb, err := c.WithAddress(addr).SetBounds(length)
	return nb, err == nil
}
