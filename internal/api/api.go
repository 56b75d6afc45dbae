// Package api defines the types shared between compartment code and the
// RTOS kernel: argument/return values for compartment calls, the execution
// context through which compartment code touches the simulated machine,
// and the error-number convention of the CHERIoT RTOS APIs.
//
// It is the moral equivalent of the cheriot-rtos public headers: both the
// firmware description (internal/firmware) and the kernel
// (internal/switcher and the TCB compartments) build against it.
package api

import (
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Value is the content of one argument or return register of a compartment
// call: either a capability or a plain data word. The hardware makes the
// distinction unforgeable via the tag bit; here the IsCap flag plays that
// role and the switcher preserves it across domain transitions.
type Value struct {
	Cap   cap.Capability
	Word  uint32
	IsCap bool
}

// W wraps a data word as a Value.
func W(w uint32) Value { return Value{Word: w} }

// C wraps a capability as a Value.
func C(c cap.Capability) Value { return Value{Cap: c, IsCap: true} }

// AsWord returns the data-word view of the value (the address, for
// capabilities, mirroring how hardware registers read).
func (v Value) AsWord() uint32 {
	if v.IsCap {
		return v.Cap.Address()
	}
	return v.Word
}

// Errno is the error-number convention of RTOS APIs: zero means success,
// negative values are errors, in the style of embedded C APIs.
type Errno int32

// API error numbers.
const (
	OK                 Errno = 0
	ErrInvalid         Errno = -1  // malformed argument
	ErrNoMemory        Errno = -2  // quota or heap exhausted
	ErrNotPermitted    Errno = -3  // missing rights
	ErrTimeout         Errno = -4  // timed out waiting
	ErrWouldBlock      Errno = -5  // non-blocking op would block
	ErrNotFound        Errno = -6  // no such object/export
	ErrUnwound         Errno = -7  // callee faulted and unwound
	ErrCompartmentBusy Errno = -8  // target compartment is micro-rebooting
	ErrQueueFull       Errno = -9  // message queue full
	ErrQueueEmpty      Errno = -10 // message queue empty
	ErrConnRefused     Errno = -11 // network connection refused
	ErrConnReset       Errno = -12 // network connection reset
)

func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case ErrInvalid:
		return "invalid argument"
	case ErrNoMemory:
		return "out of memory or quota"
	case ErrNotPermitted:
		return "not permitted"
	case ErrTimeout:
		return "timed out"
	case ErrWouldBlock:
		return "would block"
	case ErrNotFound:
		return "not found"
	case ErrUnwound:
		return "callee faulted and unwound"
	case ErrCompartmentBusy:
		return "compartment resetting"
	case ErrQueueFull:
		return "queue full"
	case ErrQueueEmpty:
		return "queue empty"
	case ErrConnRefused:
		return "connection refused"
	case ErrConnReset:
		return "connection reset"
	default:
		return "unknown error"
	}
}

// errnoRegs holds the return register of every named errno, OK through
// ErrConnReset, indexed by -errno.
var errnoRegs = func() (r [1 - ErrConnReset][]Value) {
	for i := range r {
		r[i] = []Value{W(uint32(-int32(i)))}
	}
	return r
}()

// EV wraps an Errno as a single-register return value. A named errno's
// slice (OK through ErrConnReset, length and capacity 1) is shared by
// every return of it, so return registers are read-only; any other value
// gets a slice of its own.
func EV(e Errno) []Value {
	if e <= OK && e >= ErrConnReset {
		return errnoRegs[-e]
	}
	return []Value{W(uint32(e))}
}

// ErrnoOf decodes the first return register as an Errno; a missing return
// value decodes as ErrInvalid.
func ErrnoOf(rets []Value) Errno {
	if len(rets) == 0 {
		return ErrInvalid
	}
	return Errno(int32(rets[0].AsWord()))
}

// Entry is a compartment entry point or shared-library function body.
// Argument and return values travel through (simulated) registers. Faults
// raised while the entry runs are caught by the switcher at this boundary.
//
// args are the caller's argument registers, valid until the entry
// returns: the caller's next call reuses them, so an entry must not keep
// them, and one that returns them hands its caller registers that call
// overwrites. The returned slice is the return registers, which are
// read-only: the caller must not write into them (EV shares one slice per
// errno across every call). A multi-register return is formed with
// Context.Ret, in the running thread's return registers; as a0/a1 on the
// hardware, they stay valid until the caller's next call (or Ret), and a
// caller that needs a value longer copies it out first.
type Entry func(ctx Context, args []Value) []Value

// HandlerDecision is returned by a compartment's global error handler.
type HandlerDecision int

const (
	// HandlerUnwind tells the switcher to unwind the thread to the calling
	// compartment, making the faulting call return ErrUnwound.
	HandlerUnwind HandlerDecision = iota
	// HandlerRetry tells the switcher to re-invoke the entry point from a
	// clean state (the "correct the fault and resume" pattern, applicable
	// when the handler has rolled the compartment back).
	HandlerRetry
)

// ErrorHandler is a compartment's global error handler
// (compartment_error_handler in the C API, §3.2.6). It runs in the
// compartment's own context with the trap cause.
type ErrorHandler func(ctx Context, t *hw.Trap) HandlerDecision

// Context is the view compartment code has of the machine: every memory
// access is authorized by a capability and charged simulated cycles, and
// all cross-compartment interaction goes through Call. A Context is only
// valid inside the entry invocation that received it.
//
// Memory accessors trap (panic with *hw.Trap, caught at the compartment
// boundary) on any capability violation, exactly as the hardware would.
//
// A Context is a handle on the switcher's Frame for that invocation. Its
// own Call and LibCall copy their arguments into the running thread's
// argument registers and make the call through them, so, as on the
// hardware, a call passes its arguments without allocating.
type Context struct{ Frame }

// Call performs a compartment call to an entry point the compartment
// imports. It returns the callee's return registers; if the callee
// faulted and unwound, it returns ErrUnwound (or ErrCompartmentBusy while
// the target micro-reboots). Calling an entry point that is not in the
// import table traps.
func (c Context) Call(compartment, entry string, args ...Value) ([]Value, error) {
	copy(c.ArgRegs(len(args)), args)
	return c.CallRegs(compartment, entry, len(args))
}

// LibCall invokes an imported shared-library function. The library runs
// in the caller's security domain: no new trusted-stack frame, no stack
// zeroing, and any fault it raises is attributed to the caller.
func (c Context) LibCall(library, fn string, args ...Value) []Value {
	copy(c.ArgRegs(len(args)), args)
	return c.LibCallRegs(library, fn, len(args))
}

// Ret returns vals in the running thread's return registers: an entry
// ends with return ctx.Ret(...) for a multi-register return, which, like
// Call's arguments, allocates nothing. The values are copied in, so an
// entry may pass on registers a callee returned to it. The registers are
// pushed on the thread's argument stack like arguments, so a call the
// entry makes after forming its return (a deferred one, say) lands above
// them; the entry's return pops them with its arguments, which leaves
// them in place until the caller's next call or Ret.
func (c Context) Ret(vals ...Value) []Value {
	regs := c.ArgRegs(len(vals))
	copy(regs, vals)
	return regs
}

// Frame is what the switcher implements for one entry invocation: every
// method of Context except Call, LibCall and Ret, which Context builds on
// the register methods at the end.
type Frame interface {
	// Compartment returns the name of the executing compartment.
	Compartment() string
	// Caller returns the name of the compartment that performed the
	// current compartment call ("" at a thread's top level). It comes from
	// the switcher's trusted stack, so callees can rely on it for
	// namespacing even against malicious callers.
	Caller() string
	// ThreadID returns the running thread's identifier.
	ThreadID() int

	// Load32/Store32 access a 32-bit word (SRAM or device register).
	Load32(c cap.Capability) uint32
	Store32(c cap.Capability, v uint32)
	// LoadBytes/StoreBytes move byte ranges. LoadInto is LoadBytes into
	// the caller's dst, len(dst) bytes of it: the same cycle charge, trap
	// and preemption point, without a fresh slice.
	LoadBytes(c cap.Capability, n uint32) []byte
	LoadInto(c cap.Capability, dst []byte)
	StoreBytes(c cap.Capability, b []byte)
	// LoadCap/StoreCap move capabilities through memory, applying the
	// load filter and deep attenuation.
	LoadCap(c cap.Capability) cap.Capability
	StoreCap(at cap.Capability, v cap.Capability)
	// Zero clears a byte range.
	Zero(c cap.Capability, n uint32)

	// Work charges n cycles of computation; it is also a preemption point.
	Work(n uint64)
	// Now returns the current cycle count (reading the timer device).
	Now() uint64
	// Yield voluntarily gives up the core.
	Yield()

	// State returns the compartment's private Go-level state object (built
	// by its firmware State factory), the simulation stand-in for
	// compiled-in globals too complex to model as bytes. Micro-reboot
	// replaces it with a fresh instance.
	State() interface{}

	// EphemeralClaim records the capability in one of the thread's two
	// hazard slots, preventing the allocator from reusing the object until
	// the thread's next compartment call or ephemeral claim (§3.2.5).
	EphemeralClaim(c cap.Capability)

	// Globals returns the read-write capability to the compartment's
	// global data region.
	Globals() cap.Capability
	// MMIO returns the imported device-window capability with the given
	// import name; it traps if the compartment does not import it.
	MMIO(name string) cap.Capability
	// SealedImport returns a static sealed object (e.g. an allocation
	// capability) from the import table.
	SealedImport(name string) cap.Capability
	// SharedGlobal returns the compartment's capability to a statically-
	// shared global region: read-write for declared writers, deeply
	// read-only for readers. It traps if the compartment has no grant.
	SharedGlobal(name string) cap.Capability

	// StackAlloc carves n bytes from the current call frame's stack
	// budget and returns a local (non-global) capability to it. The
	// memory is zeroed by the switcher on both call and return paths.
	StackAlloc(n uint32) cap.Capability

	// During runs body with a scoped error handler (the DURING/HANDLER
	// macros, §3.2.6). If body traps, handler runs in this compartment
	// with the cause and execution continues after During.
	During(body func(), handler func(t *hw.Trap))
	// Fault raises a synchronous trap explicitly.
	Fault(code hw.TrapCode, detail string)

	// Telemetry returns the run's telemetry registry, or nil when telemetry
	// is disabled. Compartments use it to bump counters and observe
	// histogram samples; every registry handle is nil-safe, so
	// instrumented code needs no enabled check.
	Telemetry() *telemetry.Registry

	// Emit hands one event to the kernel, which stamps it with the
	// current cycle and feeds whichever sinks are attached: the trace
	// ring and the flight recorder. It returns the provenance node the
	// recorder assigned to a root, derive or alloc event, or 0; with no
	// sink attached it does nothing.
	Emit(ev telemetry.Event) uint32

	// ArgRegs pushes n argument registers on the running thread's
	// argument stack and returns them, with length and capacity n.
	ArgRegs(n int) []Value
	// CallRegs is Call with its arguments in the n argument registers on
	// top of the stack; the return pops them.
	CallRegs(compartment, entry string, n int) ([]Value, error)
	// LibCallRegs is LibCall with its arguments in the n argument
	// registers on top of the stack; the return pops them.
	LibCallRegs(library, fn string, n int) []Value
}
