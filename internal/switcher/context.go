package switcher

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// ctx implements api.Frame for one compartment-call frame; entries get it
// wrapped in an api.Context. Every memory operation is capability-checked
// by the mem layer and charged cycles; any violation panics with
// *hw.Trap, which the switcher catches at the compartment boundary,
// exactly like a hardware trap.
type ctx struct {
	k         *Kernel
	t         *Thread
	comp      *Comp
	frameIdx  int
	inHandler bool
}

var _ api.Frame = (*ctx)(nil)

// checkLive faults the thread out of a compartment that is being
// micro-rebooted; it runs at the top of every context operation
// (micro-reboot step 2's "waking up and faulting all other threads"). The
// error handler driving the reboot is exempt — it must be able to run its
// cleanup inside the compartment.
func (c *ctx) checkLive() {
	if c.t.evict[c.comp.Name()] {
		panic(&hw.Trap{Code: hw.TrapForcedUnwind,
			Detail: fmt.Sprintf("thread evicted from resetting compartment %s", c.comp.Name())})
	}
	if c.comp.resetting && !c.inHandler {
		panic(&hw.Trap{Code: hw.TrapForcedUnwind,
			Detail: fmt.Sprintf("compartment %s is resetting", c.comp.Name())})
	}
}

// trapIf raises the hardware trap for a capability-rule error, carrying
// the capability being exercised so post-mortem reports can dump its
// fields and resolve its provenance.
func (c *ctx) trapIf(err error, cc cap.Capability) {
	if err != nil {
		panic(hw.TrapWithCap(err, cc.Address(), cc))
	}
}

// Compartment implements api.Frame.
func (c *ctx) Compartment() string { return c.comp.Name() }

// Telemetry implements api.Frame. All registry handles are nil-safe, so
// compartment code instruments unconditionally and pays one nil check when
// telemetry is disabled.
func (c *ctx) Telemetry() *telemetry.Registry { return c.k.tel }

// Emit implements api.Frame.
func (c *ctx) Emit(ev telemetry.Event) uint32 { return c.k.Emit(ev) }

// Caller implements api.Frame, reading the trusted stack.
func (c *ctx) Caller() string {
	if c.frameIdx == 0 {
		return ""
	}
	return c.t.frames[c.frameIdx-1].comp.Name()
}

// ThreadID implements api.Frame.
func (c *ctx) ThreadID() int { return c.t.ID }

// Load32 implements api.Frame.
func (c *ctx) Load32(cc cap.Capability) uint32 {
	c.checkLive()
	c.k.Core.Tick(hw.CopyCost(4))
	v, err := c.k.Core.Mem.Load32(cc)
	c.trapIf(err, cc)
	c.t.maybePreempt()
	return v
}

// Store32 implements api.Frame.
func (c *ctx) Store32(cc cap.Capability, v uint32) {
	c.checkLive()
	c.k.Core.Tick(hw.CopyCost(4))
	c.trapIf(c.k.Core.Mem.Store32(cc, v), cc)
	c.t.maybePreempt()
}

// LoadBytes implements api.Frame.
func (c *ctx) LoadBytes(cc cap.Capability, n uint32) []byte { return c.load(cc, n, nil) }

// LoadInto implements api.Frame.
func (c *ctx) LoadInto(cc cap.Capability, dst []byte) { c.load(cc, uint32(len(dst)), dst) }

// load reads n bytes into dst, or into a fresh slice when dst is nil,
// which memory allocates only once the access checks pass.
func (c *ctx) load(cc cap.Capability, n uint32, dst []byte) []byte {
	c.checkLive()
	c.k.Core.Tick(hw.CopyCost(n))
	var err error
	if dst == nil {
		dst, err = c.k.Core.Mem.LoadBytes(cc, n)
	} else {
		err = c.k.Core.Mem.LoadInto(cc, dst)
	}
	c.trapIf(err, cc)
	c.t.maybePreempt()
	return dst
}

// StoreBytes implements api.Frame.
func (c *ctx) StoreBytes(cc cap.Capability, b []byte) {
	c.checkLive()
	c.k.Core.Tick(hw.CopyCost(uint32(len(b))))
	c.trapIf(c.k.Core.Mem.StoreBytes(cc, b), cc)
	c.t.maybePreempt()
}

// LoadCap implements api.Frame.
func (c *ctx) LoadCap(cc cap.Capability) cap.Capability {
	c.checkLive()
	// Two bus reads on the 33-bit bus (§5.3).
	c.k.Core.Tick(hw.CopyCost(8))
	v, err := c.k.Core.Mem.LoadCap(cc)
	c.trapIf(err, cc)
	c.t.maybePreempt()
	return v
}

// StoreCap implements api.Frame.
func (c *ctx) StoreCap(at, v cap.Capability) {
	c.checkLive()
	c.k.Core.Tick(hw.CopyCost(8))
	c.trapIf(c.k.Core.Mem.StoreCap(at, v), at)
	c.t.maybePreempt()
}

// Zero implements api.Frame.
func (c *ctx) Zero(cc cap.Capability, n uint32) {
	c.checkLive()
	c.k.Core.Tick(hw.ZeroCost(n))
	c.trapIf(c.k.Core.Mem.Zero(cc, n), cc)
	c.t.maybePreempt()
}

// Work implements api.Frame.
func (c *ctx) Work(n uint64) {
	c.checkLive()
	c.k.Core.Tick(n)
	c.t.maybePreempt()
}

// Now implements api.Frame.
func (c *ctx) Now() uint64 { return c.k.Core.Clock.Cycles() }

// Yield implements api.Frame.
func (c *ctx) Yield() {
	c.checkLive()
	c.t.yield(yieldVoluntary)
}

// ArgRegs implements api.Frame: it pushes n slots on the thread's
// argument stack. When the stack must grow, the frames below keep their
// args (and a caller its callee's return registers) in the old array,
// which nothing writes again.
func (c *ctx) ArgRegs(n int) []api.Value {
	t := c.t
	top := t.argTop + n
	if top > len(t.args) {
		t.args = make([]api.Value, max(top, 2*len(t.args)))
	}
	regs := t.args[t.argTop:top:top]
	t.argTop = top
	return regs
}

// CallRegs implements api.Frame.
func (c *ctx) CallRegs(compartment, entry string, n int) ([]api.Value, error) {
	c.checkLive()
	return c.k.compartmentCall(c.t, c.comp, compartment, entry, n)
}

// LibCallRegs implements api.Frame.
func (c *ctx) LibCallRegs(library, fn string, n int) []api.Value {
	c.checkLive()
	return c.k.libCall(c, library, fn, n)
}

// Globals implements api.Frame.
func (c *ctx) Globals() cap.Capability { return c.comp.globals }

// State implements api.Frame.
func (c *ctx) State() interface{} { return c.comp.state }

// MMIO implements api.Frame.
func (c *ctx) MMIO(name string) cap.Capability {
	if w, ok := c.comp.mmio[name]; ok {
		return w
	}
	panic(&hw.Trap{Code: hw.TrapPermitViolation,
		Detail: fmt.Sprintf("%s does not import device %q", c.comp.Name(), name)})
}

// SharedGlobal implements api.Frame.
func (c *ctx) SharedGlobal(name string) cap.Capability {
	if s, ok := c.comp.shared[name]; ok {
		return s
	}
	panic(&hw.Trap{Code: hw.TrapPermitViolation,
		Detail: fmt.Sprintf("%s has no grant for shared global %q", c.comp.Name(), name)})
}

// SealedImport implements api.Frame.
func (c *ctx) SealedImport(name string) cap.Capability {
	if s, ok := c.comp.sealedImports[name]; ok {
		return s
	}
	panic(&hw.Trap{Code: hw.TrapPermitViolation,
		Detail: fmt.Sprintf("%s does not import sealed object %q", c.comp.Name(), name)})
}

// StackAlloc implements api.Frame.
func (c *ctx) StackAlloc(n uint32) cap.Capability {
	c.checkLive()
	fr := &c.t.frames[c.frameIdx]
	n = align8(n)
	if fr.allocOff+n > fr.size {
		panic(&hw.Trap{Code: hw.TrapStackOverflow, Addr: fr.base,
			Detail: fmt.Sprintf("stack frame of %d bytes exhausted", fr.size)})
	}
	base := fr.base + fr.allocOff
	fr.allocOff += n
	if fr.base < c.t.dirtyFloor {
		c.t.dirtyFloor = fr.base // the frame is (potentially) dirty now
	}
	at := c.t.stackCap.WithAddress(base)
	buf, err := at.SetBounds(n)
	c.trapIf(err, at)
	if c.k.rec != nil {
		// Only the recorder keeps provenance: skip building the root's
		// note without it.
		if c.t.stackNode == 0 {
			c.t.stackNode = c.k.Emit(telemetry.Event{Kind: telemetry.KindRoot, To: c.comp.Name(),
				Detail: "stack " + c.t.Name, Arg: uint64(c.t.stack.Base), Arg2: uint64(c.t.stack.Top())})
		}
		c.k.Emit(telemetry.Event{Kind: telemetry.KindDerive, To: c.comp.Name(), Detail: "stack_alloc",
			Parent: c.t.stackNode, Arg: uint64(buf.Base()), Arg2: uint64(buf.Top())})
	}
	return buf
}

// During implements api.Frame: the DURING/HANDLER scoped error handler
// built on setjmp/longjmp (§3.2.6). A forced unwind (micro-reboot) is not
// interceptable and continues to tear the thread out.
func (c *ctx) During(body func(), handler func(t *hw.Trap)) {
	c.checkLive()
	c.k.Core.Tick(hw.ScopedEnterCycles)
	argTop := c.t.argTop
	defer func() {
		if r := recover(); r != nil {
			tr, ok := r.(*hw.Trap)
			if !ok || tr.Code == hw.TrapForcedUnwind {
				panic(r)
			}
			// A call that trapped before its return left its argument
			// registers pushed.
			c.t.argTop = argTop
			c.k.Core.Tick(hw.ScopedUnwindCycles)
			handler(tr)
		}
	}()
	body()
}

// Fault implements api.Frame.
func (c *ctx) Fault(code hw.TrapCode, detail string) {
	panic(&hw.Trap{Code: code, Detail: detail})
}

// EphemeralClaim implements api.Frame: the hazard-pointer-style claim
// held in the thread's two switcher-managed slots (§3.2.5).
func (c *ctx) EphemeralClaim(cc cap.Capability) {
	c.checkLive()
	c.k.Core.Tick(hw.EphemeralClaimCycles)
	c.t.hazard[c.t.hazardNext] = cc
	c.t.hazardNext = (c.t.hazardNext + 1) % len(c.t.hazard)
}
