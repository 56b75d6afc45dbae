// Package prof is the cycle-exact compartment profiler: a tree of
// cross-compartment call stacks in which every simulated cycle lands on
// exactly one frame. It keeps no stack and no time of its own. The
// switcher's trusted stack is the call stack: each trusted-stack frame
// holds its Node, each thread holds its root Node, and at every
// transition the switcher installs the current frame's cell in the
// hw.Clock, whose Advance charges that cell beside the telemetry
// accounts, so by construction the frames' self-cycles sum to the clock
// delta since the profiler was armed. A second, host-side view
// (HostProfile) times the fleet runner's real wall-clock cost centers —
// device boot, the step loop, netsim inbox pumping, result merging — per
// worker.
//
// Everything here is deterministic: a Profile is a pure function of the
// simulated execution, so lockstep and parallel fleet runs merge to
// byte-identical profiles for the same config+seed. The Profiler and Node
// methods the switcher calls are nil-safe and allocation-free on the nil
// receiver, so instrumented hot paths pay only a nil check when
// profiling is off.
//
// Cycles outside any compartment go to the telemetry package's
// pseudo-domain frames (telemetry.DomainSwitcher, DomainSched,
// DomainIdle), and the Chrome export uses its trace_event encoder;
// telemetry imports nothing from the module, so prof can depend on it.
package prof

import "github.com/cheriot-go/cheriot/internal/hw"

// Node is one frame in the profile tree: a path from the root, so the
// same compartment entry reached along two call chains is two nodes. The
// root is unnamed and holds no cycles; its children are threads and
// system pseudo-domains.
//
// A node's children form a singly linked list kept in move-to-front
// order: first is the most recently entered child and next links each
// child to the one entered before it. The switcher's call choreography
// alternates between the overlay frame and the callee frame under one
// parent, so nearly every lookup stops at the first or second child.
// Labels are interned by the caller, making == a cheap compare, so no
// map is needed and a node is one 48-byte allocation.
type Node struct {
	label       string
	first, next *Node
	self        uint64 // the clock's cell while this node is the current frame
	calls       uint64 // times this frame was entered
}

// child returns n's child labeled label, creating it if needed, and
// moves it to the front of n's children. It stays out of line so that
// Enter, whose nil check is all the switcher pays with the profiler off,
// fits the inliner's budget.
//
//go:noinline
func (n *Node) child(label string) *Node {
	c := n.first
	if c != nil && c.label == label {
		return c
	}
	prev := c
	for c != nil {
		if c = c.next; c != nil && c.label == label {
			prev.next = c.next
			break
		}
		prev = c
	}
	if c == nil {
		c = &Node{label: label}
	}
	c.next, n.first = n.first, c
	return c
}

// Enter counts one entry into the child frame label and returns it.
// Nil-safe: a nil node has no children and returns nil.
func (n *Node) Enter(label string) *Node {
	if n == nil {
		return nil
	}
	c := n.child(label)
	c.calls++
	return c
}

// Cell returns the cycle cell the clock charges while n is the current
// frame: install it with hw.Clock.SetFrameAccount. Nil-safe: a nil node
// returns a nil cell, which the clock ignores.
func (n *Node) Cell() *uint64 {
	if n == nil {
		return nil
	}
	return &n.self
}

// Profiler accumulates the call-stack profile of one simulated machine.
// The switcher drives it through the nodes Root hands out and the nodes
// they Enter; the profiler itself only owns the tree and the clock span
// it measures. The kernel loop runs on the yielding thread's coroutine,
// and exactly one coroutine holds the core at a time, on the goroutine
// that called Run, so no locking is needed — the same single-writer
// discipline the telemetry accounts rely on.
type Profiler struct {
	clock *hw.Clock // nil once Close ends the profile
	hz    uint64
	base  uint64
	total uint64 // the cycles from base to Close
	root  Node
}

// New arms a profiler on a machine's clock. Cycles count from now, into
// whichever frame cell the clock has installed: install one before the
// clock next advances, or those cycles go to no frame.
func New(clock *hw.Clock) *Profiler {
	return &Profiler{clock: clock, hz: clock.Hz(), base: clock.Cycles()}
}

// Root returns the root-level frame label: a thread's root, under which
// its compartment calls nest, or a pseudo-domain ("<switcher>",
// "<sched>", "<idle>") for cycles spent outside any thread's calls. It
// counts no entry. Nil-safe: a nil profiler returns a nil node.
func (p *Profiler) Root(label string) *Node {
	if p == nil {
		return nil
	}
	return p.root.child(label)
}

// cycles returns the cycles the profile covers: from the base to the
// clock's current reading, or to Close.
func (p *Profiler) cycles() uint64 {
	if p.clock == nil {
		return p.total
	}
	return p.clock.Cycles() - p.base
}

// Close ends the profile at the clock's current reading and lets the
// clock go, so a closed profiler holds only its tree: Snapshot and Merge
// read the total as of the close. It reports whether the frames' self
// cycles sum to that total, the exactness invariant, from one walk over
// the tree. Nil-safe: a nil profiler reports false.
func (p *Profiler) Close() bool {
	if p == nil {
		return false
	}
	p.total = p.cycles()
	p.clock = nil
	return p.root.selfSum() == p.total
}

// selfSum returns the self cycles of n and every node below it.
func (n *Node) selfSum() uint64 {
	sum := n.self
	for c := n.first; c != nil; c = c.next {
		sum += c.selfSum()
	}
	return sum
}
