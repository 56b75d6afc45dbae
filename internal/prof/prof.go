// Package prof is the cycle-exact compartment profiler: it reconstructs
// cross-compartment call stacks from the switcher's call/return/unwind
// path and attributes every simulated cycle to exactly one stack frame.
// It keeps no time of its own: at every transition it installs the
// current frame's cell in the hw.Clock, whose Advance charges that cell
// beside the telemetry accounts, so by construction the frames'
// self-cycles sum to the clock delta since the profiler was armed. A
// second, host-side view (HostProfile) times the fleet runner's real
// wall-clock cost centers — device boot, the step loop, netsim inbox
// pumping, result merging — per worker.
//
// Everything here is deterministic: a Profile is a pure function of the
// simulated execution, so lockstep and parallel fleet runs merge to
// byte-identical profiles for the same config+seed. Every Profiler
// method is nil-safe and allocation-free on the nil receiver, so
// instrumented hot paths pay only a nil check when profiling is off.
//
// Cycles outside any compartment go to the telemetry package's
// pseudo-domain frames (telemetry.DomainSwitcher, DomainSched,
// DomainIdle), and the Chrome export uses its trace_event encoder;
// telemetry imports nothing from the module, so prof can depend on it.
package prof

import "github.com/cheriot-go/cheriot/internal/hw"

// node is one frame in the profile trie. The root is unnamed and holds
// no cycles; its children are threads and system pseudo-domains.
type node struct {
	label    string
	parent   *node
	children map[string]*node
	// c0/c1 are the two most-recently-used children: the switcher's call
	// choreography alternates between the overlay frame and the callee
	// frame under one parent, so this tiny cache absorbs most lookups.
	// Labels are interned by the caller, making == a cheap compare.
	c0, c1 *node
	self   uint64 // the clock's cell while this node is the current frame
	calls  uint64 // times this frame was entered
}

func (n *node) child(label string) *node {
	if c := n.c0; c != nil && c.label == label {
		return c
	}
	if c := n.c1; c != nil && c.label == label {
		n.c0, n.c1 = c, n.c0
		return c
	}
	c := n.children[label]
	if c == nil {
		c = &node{label: label, parent: n}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[label] = c
	}
	n.c0, n.c1 = c, n.c0
	return c
}

// threadState is one thread's live call stack. stack[0] is the thread's
// own root node (labelled with the thread name); compartment frames pile
// on top of it.
type threadState struct {
	stack []*node
}

// Profiler reconstructs and accumulates the call-stack profile of one
// simulated machine. It is driven by the switcher: Push/Swap/Pop/PopTo on
// compartment transitions and Activate on dispatch, each of which
// installs the new current frame's cell in the clock; the kernel installs
// the pseudo-domain cells (SysFrame) itself, as it does the pseudo-domain
// accounts. The kernel loop runs on the yielding thread's coroutine, and
// exactly one coroutine holds the core at a time, on the goroutine that
// called Run, so no locking is needed — the same single-writer
// discipline the telemetry accounts rely on.
type Profiler struct {
	clock *hw.Clock
	base  uint64

	root    node
	threads []*threadState // indexed by thread ID (IDs are small and dense)
}

// New arms a profiler on a machine's clock. Cycles count from now, into
// whichever frame cell the clock has installed: install one (Push,
// Activate, or a SysFrame cell) before the clock next advances, or those
// cycles go to no frame.
func New(clock *hw.Clock) *Profiler {
	return &Profiler{clock: clock, base: clock.Cycles()}
}

// thread returns the thread's state, nil when out of range or
// unregistered.
func (p *Profiler) thread(tid int) *threadState {
	if tid < 0 || tid >= len(p.threads) {
		return nil
	}
	return p.threads[tid]
}

// enter makes n the current frame: the clock charges its cell from now
// until the next transition. Installing the cell at every transition is
// what makes the profile exact: every cycle lands in precisely one node.
func (p *Profiler) enter(n *node) { p.clock.SetFrameAccount(&n.self) }

// RegisterThread creates the thread's root frame. Idempotent; nil-safe.
func (p *Profiler) RegisterThread(id int, name string) {
	if p == nil || id < 0 {
		return
	}
	for id >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	if p.threads[id] == nil {
		p.threads[id] = &threadState{stack: []*node{p.root.child(name)}}
	}
}

// Push enters a frame on the thread's stack and makes it current: the
// switcher calls it on compartment entry (and for its own transition
// overlay). Unregistered threads are ignored. Nil-safe, allocation-free
// on nil.
func (p *Profiler) Push(tid int, label string) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	n := ts.stack[len(ts.stack)-1].child(label)
	n.calls++
	ts.stack = append(ts.stack, n)
	p.enter(n)
}

// Swap replaces the thread's top frame with a sibling — Pop followed by
// Push fused into one transition. The switcher uses it at call boundaries
// where its overlay frame hands off directly to the callee frame (and
// back) with no cycles in between. The thread root is never swapped out.
// Nil-safe.
func (p *Profiler) Swap(tid int, label string) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	if len(ts.stack) <= 1 {
		p.Push(tid, label)
		return
	}
	n := ts.stack[len(ts.stack)-2].child(label)
	n.calls++
	ts.stack[len(ts.stack)-1] = n
	p.enter(n)
}

// Pop leaves the thread's top frame, making its parent current. The
// thread root is never popped. Nil-safe.
func (p *Profiler) Pop(tid int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil || len(ts.stack) <= 1 {
		return
	}
	ts.stack = ts.stack[:len(ts.stack)-1]
	p.enter(ts.stack[len(ts.stack)-1])
}

// Depth returns the thread's current stack depth (0 when nil or
// unregistered). The switcher snapshots it on entry so a trap panic
// that escapes nested calls can be repaired with PopTo.
func (p *Profiler) Depth(tid int) int {
	if p == nil {
		return 0
	}
	ts := p.thread(tid)
	if ts == nil {
		return 0
	}
	return len(ts.stack)
}

// PopTo truncates the thread's stack back to depth: the unwind repair
// primitive. A trap panic can escape a nested compartment call from the
// middle of the switcher's transition sequence (e.g. stack zeroing
// faulting), leaving stray frames; the enclosing error path restores the
// depth it recorded. The abandoned frames keep the cycles they were
// charged. Nil-safe.
func (p *Profiler) PopTo(tid int, depth int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil || depth < 1 || len(ts.stack) <= depth {
		return
	}
	ts.stack = ts.stack[:depth]
	p.enter(ts.stack[len(ts.stack)-1])
}

// Activate makes the thread's top frame current: the kernel calls it
// when dispatching the thread, beside the telemetry account install.
// Nil-safe.
func (p *Profiler) Activate(tid int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	p.enter(ts.stack[len(ts.stack)-1])
}

// SysFrame resolves a root-level pseudo-domain frame ("<switcher>",
// "<sched>", "<idle>"), for cycles spent outside any thread's compartment
// stack, to its cell: the kernel installs it in the clock the way it
// installs the pseudo-domain's telemetry account. Nil-safe: a nil
// profiler returns a nil cell, which the clock ignores.
func (p *Profiler) SysFrame(label string) *uint64 {
	if p == nil {
		return nil
	}
	return &p.root.child(label).self
}
