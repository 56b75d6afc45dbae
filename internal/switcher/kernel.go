package switcher

import (
	"errors"
	"fmt"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Scheduler is the policy half of the TCB's scheduling split: the switcher
// mechanically context-switches, the scheduler decides (§3.1.4). The
// scheduler is trusted only for availability; it never sees thread
// register state (which the switcher hands it sealed).
type Scheduler interface {
	// Ready makes a thread runnable.
	Ready(t *Thread)
	// PickNext removes and returns the next thread to run, or nil to idle.
	PickNext() *Thread
	// OnIRQ handles a device interrupt (typically bumping an interrupt
	// futex and waking its waiters).
	OnIRQ(line hw.IRQ)
	// ForceWake unblocks a thread regardless of what it waits on, so a
	// micro-reboot can rewind threads stuck inside a dying compartment.
	ForceWake(t *Thread)
	// Quantum returns the preemption quantum in cycles.
	Quantum() uint64
}

// CodeBytes models the switcher's compiled footprint: ~355 instructions
// of carefully audited assembly, ~1.4 KB (Table 2, §5.1.1).
const CodeBytes = 1400

// EntryPoints is the number of thoroughly-checked switcher entry points
// (§5.1.1).
const EntryPoints = 11

// ErrDeadlock is returned by Run when threads remain blocked with no
// pending device events to wake them.
var ErrDeadlock = errors.New("switcher: all threads blocked and no pending events")

// Kernel owns the simulated machine at run time: the core, the runtime
// compartments, and the threads. It implements the switcher's
// responsibilities and delegates policy to the Scheduler.
type Kernel struct {
	Core *hw.Core
	// Env is the embedder's per-machine environment (api.Frame.Env).
	Env any

	sched   Scheduler
	comps   map[string]*Comp
	libs    map[string]*Lib
	threads []*Thread

	lastRun     *Thread
	needResched bool

	// stop is the stop condition of the Run in progress; the kernel loop
	// samples it on whichever thread's coroutine runs the loop. pick is
	// the thread the loop's latest turn handed the core to, or nil once
	// the run has ended, with end saying how; Run's loop reads them each
	// time a coroutine hands the core back.
	stop func() bool
	pick *Thread
	end  runEnd

	// killed is set by Shutdown before it kills the threads. A killed
	// kernel makes yield and compartmentCall re-raise the kill instead of
	// advancing the clock or running the kernel loop, and the switcher's
	// recovers let it pass, so the kill unwinds as one panic through
	// deferred cleanup in compartment code, at once and silently.
	killed bool

	// pool lends the threads their runners; ownPool marks a private pool,
	// made at the first dispatch when SetPool was not called, which the
	// kernel closes once no thread can need a runner again.
	pool    *Pool
	ownPool bool

	// stackZeroing can be disabled for ablation studies only: without it,
	// compartment calls leak stack contents across trust boundaries (the
	// cost it buys is measured in BenchmarkAblation_StackZeroing).
	stackZeroing bool
	// lazyZeroing models the stack high-water-mark hardware optimization
	// the paper cites ([32,33,43,106] in §5.3.2): entry-path zeroing is
	// skipped for stack the thread has not dirtied since it was last
	// scrubbed, and the return path scrubs only what the callee actually
	// used. Isolation is preserved; only redundant zeroing is elided.
	lazyZeroing bool

	// tel, when non-nil, is the unified telemetry registry: per-compartment
	// cycle accounts (swapped into the clock at every domain transition),
	// and Emit's first sink, which counts every event and traces some.
	// All handles below are nil-safe: with telemetry off they are nil, and
	// the clock ignores a nil cell, so the transitions install them
	// unconditionally.
	tel         *telemetry.Registry
	telSwitcher *telemetry.CycleAccount // "<switcher>" pseudo-domain
	telSched    *telemetry.CycleAccount // "<sched>" pseudo-domain
	telIdle     *telemetry.CycleAccount // "<idle>" pseudo-domain

	// rec, when non-nil, is the flight recorder: the always-on black box
	// Emit feeds with calls, traps, allocations, and provenance for
	// post-mortem forensics.
	rec *flightrec.Recorder

	// prof, when non-nil, is the cycle-exact call-stack profiler. The
	// trusted stack is its call stack: every frame holds its profile
	// node, every thread its root node, and each transition installs the
	// current node's cell in the clock beside the matching account, so
	// every simulated cycle lands in exactly one cross-compartment stack.
	prof *prof.Profiler
	// profSw/profSched/profIdle are the cells of the pre-resolved
	// "<switcher>"/"<sched>"/"<idle>" pseudo-domain frames, installed in
	// the clock beside the matching accounts (nil when profiling is off).
	profSw, profSched, profIdle *uint64

	// Accounting for the evaluation harness.
	idleCycles    uint64
	switchCount   uint64
	compCallCount uint64

	// heapRoot is the allocator's privileged capability over the heap
	// region (PermUser0 bypasses the load filter). Only the allocator
	// compartment receives it, via AllocatorRoot.
	heapRoot    cap.Capability
	heapRegion  firmware.Region
	allocatorID string
}

// NewKernel wraps a core. The loader populates compartments and threads.
func NewKernel(core *hw.Core) *Kernel {
	return &Kernel{
		Core:         core,
		comps:        make(map[string]*Comp),
		libs:         make(map[string]*Lib),
		stackZeroing: true,
	}
}

// SetScheduler installs the scheduling policy; it must be called before Run.
func (k *Kernel) SetScheduler(s Scheduler) { k.sched = s }

// SetStackZeroing toggles the switcher's stack scrubbing. ONLY for
// ablation measurements: disabling it removes the caller/callee-leak
// protection of §3.1.2.
func (k *Kernel) SetStackZeroing(on bool) { k.stackZeroing = on }

// SetLazyStackZeroing enables the high-water-mark zeroing optimization:
// clean stack (zeroed and untouched since) is not re-zeroed on the call
// path. See the lazyZeroing field for the model.
func (k *Kernel) SetLazyStackZeroing(on bool) { k.lazyZeroing = on }

// AddComp registers a runtime compartment built by the loader.
func (k *Kernel) AddComp(c *Comp) {
	k.comps[c.Name()] = c
	c.acct = k.tel.Account(c.Name())
}

// AddLib registers a runtime shared library built by the loader.
func (k *Kernel) AddLib(l *Lib) { k.libs[l.Name()] = l }

// Comp returns a runtime compartment by name, or nil.
func (k *Kernel) Comp(name string) *Comp { return k.comps[name] }

// Threads returns all threads.
func (k *Kernel) Threads() []*Thread { return k.threads }

// ThreadByID returns a thread by its identifier, or nil.
func (k *Kernel) ThreadByID(id int) *Thread {
	for _, t := range k.threads {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Thread returns a thread by name, or nil.
func (k *Kernel) Thread(name string) *Thread {
	for _, t := range k.threads {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// SetHeap records the heap region and derives the allocator's privileged
// root capability over it. ownerCompartment names the only compartment
// whose context may retrieve it.
func (k *Kernel) SetHeap(region firmware.Region, ownerCompartment string) {
	k.heapRegion = region
	root := cap.New(region.Base, region.Top(), region.Base,
		cap.PermData|cap.PermStoreLocal|cap.PermUser0)
	k.heapRoot = root
	k.allocatorID = ownerCompartment
}

// HeapRegion returns the shared-heap region.
func (k *Kernel) HeapRegion() firmware.Region { return k.heapRegion }

// AllocatorRoot hands out the privileged heap root capability, but only to
// the compartment SetHeap named. The root carries PermUser0, letting its
// holder bypass the load filter — the allocator's exclusive access to
// freed memory (§3.1.3).
func (k *Kernel) AllocatorRoot(compartment string) (cap.Capability, bool) {
	if compartment != k.allocatorID || k.allocatorID == "" {
		return cap.Null(), false
	}
	return k.heapRoot, true
}

// SetPool makes the kernel's threads run on p's runners, which other
// kernels driven from the same goroutine may share. Call it before the
// first Run; without it the kernel uses a private pool.
func (k *Kernel) SetPool(p *Pool) { k.pool = p }

// AddThread creates a runtime thread from its definition and layout. It
// starts no coroutine: the thread binds a runner at its first dispatch.
func (k *Kernel) AddThread(def *firmware.Thread, layout firmware.ThreadLayout) *Thread {
	t := &Thread{
		ID:           len(k.threads) + 1,
		Name:         def.Name,
		Priority:     def.Priority,
		kernel:       k,
		def:          def,
		stack:        layout.Stack,
		sp:           layout.Stack.Top(),
		trustedStack: layout.TrustedStack,
		maxFrames:    def.TrustedStackFrames,
	}
	t.stackCap = cap.New(layout.Stack.Base, layout.Stack.Top(), layout.Stack.Base, cap.PermStack)
	t.dirtyFloor = layout.Stack.Top() // boot-zeroed: the whole stack is clean
	t.acct = k.tel.ThreadAccount(t.Name)
	t.profRoot = k.prof.Root(t.Name)
	k.threads = append(k.threads, t)
	return t
}

// EnableTelemetry attaches a telemetry registry to the kernel. From this
// point every cycle the clock advances is attributed to the compartment on
// top of the running thread's trusted stack (or to the "<switcher>",
// "<sched>", or "<idle>" pseudo-domains), per-compartment accounts sum
// exactly to the clock delta since enabling, and the registry counts
// every event Emit stamps.
func (k *Kernel) EnableTelemetry(r *telemetry.Registry) {
	k.tel = r
	r.SetBase(k.Core.Clock.Cycles())
	k.telSwitcher = r.Account(telemetry.DomainSwitcher)
	k.telSched = r.Account(telemetry.DomainSched)
	k.telIdle = r.Account(telemetry.DomainIdle)
	for _, c := range k.comps {
		c.acct = r.Account(c.Name())
	}
	for _, t := range k.threads {
		t.acct = r.ThreadAccount(t.Name)
	}
	// Until the first dispatch, time belongs to the switcher.
	k.Core.Clock.SetCompAccount(k.telSwitcher.Slot())
}

// Telemetry returns the attached registry, or nil when disabled.
func (k *Kernel) Telemetry() *telemetry.Registry { return k.tel }

// EnableProfiler attaches a call-stack profiler: from this point every
// compartment call enters a profile node, which its trusted-stack frame
// holds, so the profiler attributes every cycle the clock advances to the
// exact cross-compartment call stack that spent it (with "<switcher>",
// "<sched>", and "<idle>" pseudo-domains matching the telemetry
// accounts). It gives every thread its root node; threads created later
// get theirs from AddThread. Arm it before the first Run: a frame already
// on a thread's stack holds no node, so its cycles would land on no frame
// and the profile's self-cycles would fall short of its total.
func (k *Kernel) EnableProfiler(p *prof.Profiler) {
	k.prof = p
	k.profSw = p.Root(telemetry.DomainSwitcher).Cell()
	k.profSched = p.Root(telemetry.DomainSched).Cell()
	k.profIdle = p.Root(telemetry.DomainIdle).Cell()
	for _, t := range k.threads {
		t.profRoot = p.Root(t.Name)
	}
	// Until the first dispatch, time belongs to the switcher — the same
	// convention EnableTelemetry establishes for the cycle accounts.
	k.Core.Clock.SetFrameAccount(k.profSw)
}

// Profiler returns the attached profiler, or nil when disabled.
func (k *Kernel) Profiler() *prof.Profiler { return k.prof }

// EnableFlightRecorder attaches a flight recorder as Emit's second sink.
// Pass nil to detach.
func (k *Kernel) EnableFlightRecorder(r *flightrec.Recorder) { k.rec = r }

// FlightRecorder returns the attached recorder, or nil when disabled.
func (k *Kernel) FlightRecorder() *flightrec.Recorder { return k.rec }

// Emit is the kernel's one event entry point; compartments reach it
// through api.Context. It stamps ev with the current cycle and hands it
// to whichever sinks are attached: the telemetry registry counts it and
// traces the kinds it traces (see telemetry.Registry.Record), and the
// flight recorder decides what it keeps. It returns the provenance node
// the recorder assigned (see flightrec.Recorder.Record), or 0. With no
// sink attached it costs two nil checks and never touches simulated time.
func (k *Kernel) Emit(ev telemetry.Event) uint32 { return k.emit(ev, nil) }

// emit is Emit with the cause of a trap event, which the recorder
// reports (nil for every other kind).
func (k *Kernel) emit(ev telemetry.Event, cause *hw.Trap) uint32 {
	if k.tel == nil && k.rec == nil {
		return 0
	}
	ev.Cycle = k.Core.Clock.Cycles()
	k.tel.Record(&ev)
	if k.rec == nil {
		return 0 // spares the nil-safe call its copy of the event
	}
	return k.rec.Record(ev, cause)
}

// installFrame installs t's current frame in the clock: the compartment
// account and profile node of the frame on top of its trusted stack, or,
// for a thread with no frames, the switcher's account and the thread's
// root node. Dispatch, the return path and the fault path all use it, so
// the trusted stack alone decides where the thread's cycles go.
func (k *Kernel) installFrame(t *Thread) {
	acct, node := k.telSwitcher, t.profRoot
	if n := len(t.frames); n > 0 {
		fr := &t.frames[n-1]
		acct, node = fr.comp.acct, fr.node
	}
	k.Core.Clock.SetCompAccount(acct.Slot())
	k.Core.Clock.SetFrameAccount(node.Cell())
}

// tickAs charges n cycles of kernel-loop work to a pseudo-domain, its
// telemetry account and its profile frame cell, instead of whatever is
// installed. No device event handler advances the clock, so the whole
// Tick is exactly those n cycles.
func (k *Kernel) tickAs(a *telemetry.CycleAccount, frame *uint64, n uint64) {
	clk := k.Core.Clock
	prevA, prevF := clk.SetCompAccount(a.Slot()), clk.SetFrameAccount(frame)
	k.Core.Tick(n)
	clk.SetCompAccount(prevA)
	clk.SetFrameAccount(prevF)
}

// Stats reports the kernel's accounting counters.
type Stats struct {
	IdleCycles       uint64
	ContextSwitches  uint64
	CompartmentCalls uint64
}

// Stats returns a snapshot of the accounting counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		IdleCycles:       k.idleCycles,
		ContextSwitches:  k.switchCount,
		CompartmentCalls: k.compCallCount,
	}
}

// IdleCycles returns cycles spent with no runnable thread; the scheduler
// exposes it to the idle-load instrumentation of §5.3.3.
func (k *Kernel) IdleCycles() uint64 { return k.idleCycles }

// deliverIRQs drains pending interrupt lines into the scheduler.
func (k *Kernel) deliverIRQs() {
	for {
		line, ok := k.Core.PendingIRQ()
		if !ok {
			return
		}
		k.Core.AckIRQ(line)
		k.sched.OnIRQ(line)
	}
}

// runEnd is how a run ends: err is Run's result, and a non-nil panicked
// is re-raised on Run's caller.
type runEnd struct {
	err      error
	panicked interface{}
}

// Run drives the machine until stop returns true, every thread has exited,
// the system deadlocks, or a thread or the loop itself panics (the panic
// is re-raised here). stop is sampled between dispatches; pass nil to run
// to completion.
//
// Run performs the first dispatch itself. From then on the kernel loop
// runs on the runner of whichever thread yields (see Thread.yield), and
// that thread hands the core back here only when the loop picked another
// thread, which Run resumes, binding it a runner at its first dispatch,
// or ended the run.
func (k *Kernel) Run(stop func() bool) error {
	if k.sched == nil {
		return errors.New("switcher: no scheduler installed")
	}
	// Boot: all created threads become ready.
	for _, t := range k.threads {
		if t.state == StateCreated {
			t.state = StateReady
			k.sched.Ready(t)
		}
	}
	k.stop = stop
	t, err := k.dispatch()
	k.pick, k.end = t, runEnd{err: err}
	for k.pick != nil {
		t = k.pick
		if t.runner == nil {
			if k.pool == nil {
				k.pool, k.ownPool = new(Pool), true
			}
			t.runner = k.pool.get(t)
		}
		t.runner.resume()
	}
	if k.ownPool && k.liveThreads() == 0 {
		k.pool.Close() // every runner is parked, and none is needed again
	}
	if k.end.panicked != nil {
		panic(k.end.panicked)
	}
	return k.end.err
}

// dispatch is the kernel loop's dispatch half: sample stop, deliver
// pending interrupts, skip idle time to the next device event, and pick
// and install the next thread. It returns that thread, or nil and Run's
// result when the run ends: stop fired, every thread exited, or the
// system deadlocked.
func (k *Kernel) dispatch() (*Thread, error) {
	for {
		if k.stop != nil && k.stop() {
			return nil, nil
		}
		k.deliverIRQs()
		t := k.sched.PickNext()
		if t == nil {
			if deadline, ok := k.Core.NextEvent(); ok {
				// Idle time belongs to no thread and to the "<idle>"
				// pseudo-domain. SkipTo, not tickAs: the deadline can sit
				// at or behind the clock.
				clk := k.Core.Clock
				before := clk.Cycles()
				prevT := clk.SetThreadAccount(nil)
				prevC := clk.SetCompAccount(k.telIdle.Slot())
				prevF := clk.SetFrameAccount(k.profIdle)
				k.Core.SkipTo(deadline)
				clk.SetThreadAccount(prevT)
				clk.SetCompAccount(prevC)
				clk.SetFrameAccount(prevF)
				k.idleCycles += clk.Cycles() - before
				continue
			}
			if k.liveThreads() == 0 {
				return nil, nil
			}
			return nil, fmt.Errorf("%w: %s", ErrDeadlock, k.blockedList())
		}
		if t.state == StateExited {
			continue // stale queue entry
		}
		k.Core.Clock.SetThreadAccount(t.acct.Slot())
		if t != k.lastRun {
			// The restore itself is switcher work.
			k.tickAs(k.telSwitcher, k.profSw, hw.ContextRestoreCycles)
			k.switchCount++
			k.Emit(telemetry.Event{Kind: telemetry.KindSwitch, Thread: t.Name})
		}
		t.state = StateRunning
		t.sliceEnd = k.Core.Clock.Cycles() + k.sched.Quantum()
		k.lastRun = t
		// While the thread runs, its time belongs to its current frame;
		// compartmentCall re-installs it at every call boundary.
		k.installFrame(t)
		return t, nil
	}
}

// yielded is the kernel loop's post-yield half: time is the switcher's
// again, and the trap or scheduler work t's yield implies is charged.
func (k *Kernel) yielded(t *Thread, kind yieldKind) {
	k.Core.Clock.SetCompAccount(k.telSwitcher.Slot())
	k.Core.Clock.SetFrameAccount(k.profSw)
	switch kind {
	case yieldExited:
		// Nothing to do; the thread is gone.
	case yieldBlocked:
		// The scheduler recorded what the thread waits on; charge the
		// decision it just made.
		k.tickAs(k.telSched, k.profSched, hw.SchedulerDecideCycles)
	case yieldPreempt, yieldVoluntary:
		k.Emit(telemetry.Event{Kind: telemetry.KindPreempt, Thread: t.Name})
		// Trap entry is switcher work; entering the scheduler
		// compartment and picking the next thread is the scheduler's.
		k.tickAs(k.telSwitcher, k.profSw, hw.TrapEntryCycles)
		k.tickAs(k.telSched, k.profSched, hw.SchedulerEnterCycles+hw.SchedulerDecideCycles)
		t.state = StateReady
		k.sched.Ready(t)
	}
}

// switchFrom runs one turn of the kernel loop on t's runner after t
// yielded and records the pick for Run's loop. It reports whether t
// itself was picked again, in which case t carries on with no switch;
// otherwise t must hand the core back to Run.
//
// A panic in the loop (in stop, or in a device event the loop's ticks
// fire) also ends the run, so it surfaces on Run's caller instead of
// unwinding through t's compartment frames, where a trap would be taken
// for a fault of t's compartment.
func (k *Kernel) switchFrom(t *Thread, kind yieldKind) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			k.pick, k.end = nil, runEnd{panicked: r}
		}
	}()
	k.yielded(t, kind)
	next, err := k.dispatch()
	k.pick, k.end = next, runEnd{err: err}
	return next == t
}

func (k *Kernel) liveThreads() int {
	n := 0
	for _, t := range k.threads {
		if t.state != StateExited {
			n++
		}
	}
	return n
}

func (k *Kernel) blockedList() string {
	s := ""
	for _, t := range k.threads {
		if t.state == StateBlocked {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s (in %s)", t.Name, t.CurrentCompartment())
		}
	}
	return s
}

// Shutdown kills every thread that has not exited. Call it after Run
// returns if threads may still be blocked. Once Run has returned, every
// thread that has not exited is suspended on its runner — including one
// a panic in the kernel loop caught mid-yield, still marked running — or
// has never been dispatched and holds none. Shutdown resumes each runner
// with the kernel marked killed: the thread unwinds through its deferred
// compartment cleanup as one panic, and the runner goes back to its
// pool, all before Shutdown returns, so nothing touches the clock or
// telemetry once it has. A private pool is closed.
func (k *Kernel) Shutdown() {
	k.killed = true
	for _, t := range k.threads {
		if t.state == StateExited {
			continue
		}
		t.state = StateExited
		if t.runner != nil {
			t.runner.resume()
		}
	}
	if k.ownPool {
		k.pool.Close()
	}
}

// Running returns the thread currently (or most recently) dispatched.
func (k *Kernel) Running() *Thread { return k.lastRun }

// RequestResched asks the running thread to trap into the scheduler at
// its next preemption point. The scheduler calls it when a wake-up makes
// a higher-priority thread runnable.
func (k *Kernel) RequestResched() { k.needResched = true }

// Block parks the calling thread (which must be the running one) until a
// later Ready. The scheduler's compartment entries use it to implement
// futex waits and sleeps.
func (k *Kernel) Block(t *Thread) {
	t.state = StateBlocked
	t.yield(yieldBlocked)
	// Resumed: the kernel loop set us running again.
	t.state = StateRunning
}

// HazardSlots reports every thread's ephemeral-claim slots; the allocator
// consults them before reusing freed memory (§3.2.5).
func (k *Kernel) HazardSlots() []cap.Capability {
	var out []cap.Capability
	for _, t := range k.threads {
		for _, h := range t.hazard {
			if h.Valid() {
				out = append(out, h)
			}
		}
	}
	return out
}

// --- Micro-reboot support (§3.2.6) ---

// BeginReset starts a micro-reboot of a compartment: new calls are refused
// with ErrCompartmentBusy and every thread currently inside (other than
// exceptThreadID, the one driving the reboot from its error handler)
// faults with TrapForcedUnwind at its next operation. Blocked threads are
// force-woken so they reach that operation.
func (k *Kernel) BeginReset(name string, exceptThreadID int) error {
	c := k.comps[name]
	if c == nil {
		return fmt.Errorf("switcher: no compartment %q", name)
	}
	c.resetting = true
	for _, t := range k.threads {
		if t.ID == exceptThreadID || t.state == StateExited {
			continue
		}
		if t.InCompartment(name) {
			if t.evict == nil {
				t.evict = make(map[string]bool)
			}
			t.evict[name] = true
			if t.state == StateBlocked {
				k.sched.ForceWake(t)
			}
		}
	}
	return nil
}

// FinishReset completes a micro-reboot: globals are restored to the
// definition's GlobalsInit, the Go-level state object is rebuilt from
// the definition's State factory (a state installed by Comp.SetState
// stays), calls are accepted again (§3.2.6 steps 4-5), and the reboot
// counts in Comp.Reboots.
func (k *Kernel) FinishReset(name string) error {
	c := k.comps[name]
	if c == nil {
		return fmt.Errorf("switcher: no compartment %q", name)
	}
	if c.layout.Data.Size > 0 {
		if err := k.Core.Mem.Zero(c.globals, c.layout.Data.Size); err != nil {
			return err
		}
		if len(c.def.GlobalsInit) > 0 {
			if err := k.Core.Mem.StoreBytes(c.globals, c.def.GlobalsInit); err != nil {
				return err
			}
		}
		k.Core.Tick(hw.ZeroCost(c.layout.Data.Size))
	}
	if c.def.State != nil {
		c.state = c.def.State()
	}
	c.resetting = false
	c.reboots++
	return nil
}
