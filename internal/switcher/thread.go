//go:build go1.23

// The constraint raises this file's language version to go1.23, which
// iter.Pull needs, while go.mod stays at go 1.22: building the package
// needs a Go 1.23 or later toolchain.

// Package switcher implements the most privileged runtime component of the
// RTOS: transitions between threads (context switches), between
// compartments (calls and returns over trusted stacks), and first-level
// trap handling (§3.1.2).
//
// Threads run on coroutines (iter.Pull): exactly one runs at any moment,
// every switch point is explicit, and all time is the hw.Core cycle
// clock, so the whole platform is deterministic. As in the paper's
// switcher, which swaps threads in the trap path of the thread giving up
// the core, a yielding thread runs the kernel loop on the coroutine it
// runs on and carries on if it is picked again. Only when another thread is
// picked, or the run ends, does it hand the core back to the loop in
// Kernel.Run, which resumes the pick directly on the same OS thread,
// without going through the Go scheduler.
//
// A thread's coroutine is a runner lent by a Pool, not one of its own.
// The loader creates every thread at boot, but a coroutine's Go stack is
// host cost only, so a thread binds a runner at its first dispatch and
// gives it back when its body ends or Shutdown kills it; booting or
// forking a machine starts no goroutine. A fleet gives each worker one
// pool, so its devices, run one after another, reuse the same few
// runners and their already-grown stacks.
//
// The package holds no process-global mutable state: the only
// package-level variables are immutable (the ErrDeadlock sentinel and an
// interface-conformance check), and everything mutable — threads, trace
// ring, telemetry handles, heap bookkeeping — hangs off a Kernel. One
// Kernel must be driven from one goroutine at a time, but independent
// Kernels (one per simulated device) run concurrently without locking,
// which is what the fleet simulator relies on (see internal/core's
// TestSystemsRunConcurrently, run under -race); Kernels that share a
// Pool are driven one at a time.
package switcher

import (
	"fmt"
	"iter"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// ThreadState is a thread's lifecycle state.
type ThreadState int8

// Thread states.
const (
	StateCreated ThreadState = iota
	StateReady
	StateRunning
	StateBlocked
	StateExited
)

func (s ThreadState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	default:
		return "?"
	}
}

type yieldKind int8

const (
	yieldPreempt   yieldKind = iota // IRQ pending or quantum expired
	yieldVoluntary                  // explicit Yield
	yieldBlocked                    // scheduler parked the thread
	yieldExited                     // entry returned or thread died
)

// killSentinel unwinds a thread during Kernel.Shutdown.
type killSentinel struct{}

// Thread is a statically-created schedulable entity: a stack, a (virtual)
// register state, and a trusted stack of compartment-call frames
// accessible only to the switcher (§3.1.2). On the host it runs on a
// runner borrowed from its kernel's Pool, from its first dispatch until
// its body ends or Shutdown kills it.
type Thread struct {
	ID       int
	Name     string
	Priority int

	kernel *Kernel
	def    *firmware.Thread

	state ThreadState
	// runner is the coroutine the thread runs on, bound at its first
	// dispatch and given back to its pool when the body ends (nil before
	// and after).
	runner *runner

	// Stack: grows down from stackTop; sp is the current top of the free
	// region. stackCap is the full-stack capability (local, PermStack).
	stack    firmware.Region
	sp       uint32
	stackCap cap.Capability
	// peakUsed tracks the high-water mark for the stack-usage watermark
	// tooling (§3.2.5).
	peakUsed uint32
	// dirtyFloor is the lowest stack address written since it was last
	// scrubbed; everything below it is known-zero. Only consulted in the
	// lazy-zeroing mode.
	dirtyFloor uint32
	// stackNode is the flight recorder's provenance root for this stack,
	// created lazily on the first recorded StackAlloc.
	stackNode uint32

	trustedStack firmware.Region
	frames       []frame
	maxFrames    int
	// ctxs holds one entry context per trusted-stack depth, reused by
	// every entry at that depth: a context is valid only inside its
	// entry, and the entries live at once sit at distinct depths.
	ctxs []*ctx
	// args is the thread's argument-register stack, grown on demand: a
	// call pushes its arguments at argTop, its callee's args are those
	// slots, and the return or an unwind pops them.
	args   []api.Value
	argTop int

	// irqDisable defers preemption while positive (interrupt posture).
	irqDisable int
	// sliceEnd is the cycle at which the current quantum expires.
	sliceEnd uint64

	// hazard holds the thread's two ephemeral-claim slots (§3.2.5).
	hazard     [2]cap.Capability
	hazardNext int

	// evict names compartments this thread is being forcibly unwound out
	// of (micro-reboot step 2); the flag clears when the last frame in
	// that compartment pops.
	evict map[string]bool

	// acct is the thread's telemetry cycle account (nil when telemetry is
	// disabled); the switcher installs it in the clock at dispatch.
	acct *telemetry.CycleAccount
	// profRoot is the thread's root frame in the profile (nil when
	// profiling is off): its node while it has no trusted-stack frames,
	// and the parent of its top-level call's node.
	profRoot *prof.Node

	exitFault *hw.Trap
}

// frame is one trusted-stack frame: the callee's identity plus what the
// switcher needs to restore the caller. node is the frame's profile node
// (nil when profiling is off), so the trusted stack is also the profile's
// call stack.
type frame struct {
	comp     *Comp
	node     *prof.Node
	base     uint32 // callee frame base (the new sp)
	size     uint32 // callee frame size (zeroed on both paths)
	prevSP   uint32
	allocOff uint32 // StackAlloc bump offset within the frame
}

// State returns the thread's lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// ExitFault returns the trap that killed the thread's top-level call, if
// any.
func (t *Thread) ExitFault() *hw.Trap { return t.exitFault }

// CurrentCompartment returns the compartment the thread is executing in,
// or "" if it has no frames.
func (t *Thread) CurrentCompartment() string {
	if len(t.frames) == 0 {
		return ""
	}
	return t.frames[len(t.frames)-1].comp.Name()
}

// InCompartment reports whether any frame of the thread is inside the
// named compartment (used by micro-reboot step 2).
func (t *Thread) InCompartment(name string) bool {
	for _, f := range t.frames {
		if f.comp.Name() == name {
			return true
		}
	}
	return false
}

// StackWatermark returns the peak stack usage in bytes, the dynamic
// stack-usage tool of §3.2.5.
func (t *Thread) StackWatermark() uint32 { return t.peakUsed }

// irqEnabled reports whether the thread currently takes interrupts.
func (t *Thread) irqEnabled() bool { return t.irqDisable == 0 }

// yield traps the thread into the switcher. The kernel loop runs right
// here, on the thread's runner: if it picks this thread again, yield
// returns at once; otherwise the runner suspends until Run's loop
// resumes it, or Shutdown does to kill the thread.
func (t *Thread) yield(kind yieldKind) {
	k := t.kernel
	if k.killed {
		// Deferred cleanup running during a Shutdown kill: the run is
		// over, so there is no loop to run and nothing to resume.
		panic(killSentinel{})
	}
	if !k.switchFrom(t, kind) && (!t.runner.suspend(struct{}{}) || k.killed) {
		panic(killSentinel{})
	}
}

// maybePreempt is the preemption point embedded in every context
// operation: with interrupts enabled and either a pending IRQ or an
// expired quantum, the thread traps into the switcher.
func (t *Thread) maybePreempt() {
	if !t.irqEnabled() {
		return
	}
	if t.kernel.Core.IRQPending() || t.kernel.needResched ||
		t.kernel.Core.Clock.Cycles() >= t.sliceEnd {
		t.kernel.needResched = false
		t.yield(yieldPreempt)
	}
}

// run is the thread's body, which its runner executes from the thread's
// first dispatch: the top-level compartment call, then one last turn of
// the kernel loop to pass the core on. It returns however the body ends.
// A Shutdown kill ends it silently. A non-trap panic is a simulator bug:
// it ends the run, and Run re-raises it on its caller, where tests can
// see it.
func (t *Thread) run() {
	k := t.kernel
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(killSentinel); ok || k.killed {
			// Killed by Shutdown, or panicking during its kill unwind:
			// the run is over.
			return
		}
		t.state = StateExited
		k.pick, k.end = nil, runEnd{panicked: fmt.Errorf("thread %q panicked: %v", t.Name, r)}
	}()
	_, err := k.compartmentCall(t, nil, t.def.Compartment, t.def.Entry, 0)
	if f, ok := err.(*Fault); ok {
		t.exitFault = f.Trap
	}
	t.state = StateExited
	k.switchFrom(t, yieldExited)
}

// Pool lends runners to threads. A runner is a reusable coroutine: it
// runs one thread's body at a time, from the thread's first dispatch
// until the body returns or Shutdown kills it, then parks in its pool
// until the next thread needs it, keeping the Go stack the bodies grew.
// Kernels that share a pool (Kernel.SetPool) must be driven from one
// goroutine at a time, as the fleet's worker drives its devices one
// after another. The zero Pool is empty and ready to use.
type Pool struct {
	free []*runner
	// made counts the runners the pool has started, parked or not.
	made int
}

// runner is one pooled coroutine; t is the thread it runs, nil while it
// is parked.
type runner struct {
	pool    *Pool
	t       *Thread
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
}

// get lends t a parked runner, or starts one when none is parked.
func (p *Pool) get(t *Thread) *runner {
	var r *runner
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.made++
		r = &runner{pool: p}
		r.resume, r.stop = iter.Pull(r.loop)
	}
	r.t = t
	return r
}

// loop is the runner's coroutine: it runs the bound thread's body, gives
// the runner back to its pool and parks, until Close ends it.
func (r *runner) loop(suspend func(struct{}) bool) {
	r.suspend = suspend
	for {
		r.t.run()
		r.t.runner, r.t = nil, nil
		r.pool.free = append(r.pool.free, r)
		if !suspend(struct{}{}) {
			return
		}
	}
}

// Close ends every parked runner. Close a pool once every kernel that
// uses it has shut down: a runner still bound to a thread is not parked,
// and its goroutine outlives the close.
func (p *Pool) Close() {
	for _, r := range p.free {
		r.stop()
	}
	p.free = nil
}
