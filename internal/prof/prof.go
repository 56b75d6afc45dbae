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
type Node struct {
	label    string
	children map[string]*Node
	// c0/c1 are the two most-recently-used children: the switcher's call
	// choreography alternates between the overlay frame and the callee
	// frame under one parent, so this tiny cache absorbs most lookups.
	// Labels are interned by the caller, making == a cheap compare.
	c0, c1 *Node
	self   uint64 // the clock's cell while this node is the current frame
	calls  uint64 // times this frame was entered
}

func (n *Node) child(label string) *Node {
	if c := n.c0; c != nil && c.label == label {
		return c
	}
	if c := n.c1; c != nil && c.label == label {
		n.c0, n.c1 = c, n.c0
		return c
	}
	c := n.children[label]
	if c == nil {
		c = &Node{label: label}
		if n.children == nil {
			n.children = make(map[string]*Node)
		}
		n.children[label] = c
	}
	n.c0, n.c1 = c, n.c0
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
// they Enter; the profiler itself only owns the tree and the clock base
// it measures from. The kernel loop runs on the yielding thread's
// coroutine, and exactly one coroutine holds the core at a time, on the
// goroutine that called Run, so no locking is needed — the same
// single-writer discipline the telemetry accounts rely on.
type Profiler struct {
	clock *hw.Clock
	base  uint64
	root  Node
}

// New arms a profiler on a machine's clock. Cycles count from now, into
// whichever frame cell the clock has installed: install one before the
// clock next advances, or those cycles go to no frame.
func New(clock *hw.Clock) *Profiler {
	return &Profiler{clock: clock, base: clock.Cycles()}
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
