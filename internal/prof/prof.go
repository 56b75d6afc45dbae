// Package prof is the cycle-exact compartment profiler: it reconstructs
// cross-compartment call stacks from the switcher's call/return/unwind
// path and attributes every simulated cycle to exactly one stack frame,
// preserving the telemetry layer's sum-to-clock invariant (the total of
// all frame self-cycles equals the clock delta since the profiler was
// armed). A second, host-side view (HostProfile) times the fleet
// runner's real wall-clock cost centers — device boot, the step loop,
// netsim inbox pumping, result merging — per worker.
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
	self   uint64 // cycles attributed while this node was current
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

// SysRef is a resolved handle to a root-level pseudo-domain frame,
// letting the kernel's tick path charge it without a map lookup per
// tick. The zero SysRef is inert.
type SysRef struct{ n *node }

// Profiler reconstructs and accumulates the call-stack profile of one
// simulated machine. It is driven by the switcher: Push/Pop/PopTo on
// compartment transitions, Activate/System on dispatch transitions (the
// kernel loop, which runs on the yielding thread's goroutine). Exactly
// one goroutine holds the core at a time and hands it on over a channel,
// so no locking is needed — the same single-writer discipline the
// telemetry accounts rely on.
type Profiler struct {
	hz   uint64
	now  func() uint64
	base uint64
	last uint64

	root    node
	cur     *node          // frame charged for cycles since last; nil attributes nowhere
	threads []*threadState // indexed by thread ID (IDs are small and dense)
}

// New arms a profiler on a cycle clock. Cycles begin accumulating
// immediately; point the current frame somewhere (System or Activate)
// before the clock next advances or they are dropped.
func New(hz uint64, now func() uint64) *Profiler {
	t := now()
	return &Profiler{hz: hz, now: now, base: t, last: t}
}

// thread returns the thread's state, nil when out of range or
// unregistered.
func (p *Profiler) thread(tid int) *threadState {
	if tid < 0 || tid >= len(p.threads) {
		return nil
	}
	return p.threads[tid]
}

// stamp attributes the cycles elapsed since the previous transition to
// the current frame. Called on every transition, it is what makes the
// profile exact: every cycle lands in precisely one node.
func (p *Profiler) stamp() {
	t := p.now()
	if p.cur != nil {
		p.cur.self += t - p.last
	}
	p.last = t
}

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
	p.stamp()
	n := ts.stack[len(ts.stack)-1].child(label)
	n.calls++
	ts.stack = append(ts.stack, n)
	p.cur = n
}

// Swap replaces the thread's top frame with a sibling — Pop followed by
// Push fused into one transition with a single stamp. The switcher uses
// it at call boundaries where its overlay frame hands off directly to
// the callee frame (and back) with no cycles in between. The thread
// root is never swapped out. Nil-safe.
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
	p.stamp()
	n := ts.stack[len(ts.stack)-2].child(label)
	n.calls++
	ts.stack[len(ts.stack)-1] = n
	p.cur = n
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
	p.stamp()
	ts.stack = ts.stack[:len(ts.stack)-1]
	p.cur = ts.stack[len(ts.stack)-1]
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
// depth it recorded. Cycles since the last transition are stamped into
// the abandoned top first, so nothing is lost. Nil-safe.
func (p *Profiler) PopTo(tid int, depth int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil || depth < 1 || len(ts.stack) <= depth {
		return
	}
	p.stamp()
	ts.stack = ts.stack[:depth]
	p.cur = ts.stack[len(ts.stack)-1]
}

// Activate makes the thread's top frame current: the kernel calls it
// when dispatching the thread, mirroring the telemetry account install.
// Nil-safe.
func (p *Profiler) Activate(tid int) {
	if p == nil {
		return
	}
	ts := p.thread(tid)
	if ts == nil {
		return
	}
	p.stamp()
	p.cur = ts.stack[len(ts.stack)-1]
}

// System makes a root-level pseudo-domain frame current ("<switcher>",
// "<sched>", "<idle>"): cycles spent outside any thread's compartment
// stack. Nil-safe.
func (p *Profiler) System(label string) {
	if p == nil {
		return
	}
	p.stamp()
	p.cur = p.root.child(label)
}

// SystemRef is System with a pre-resolved pseudo-domain frame: the
// kernel loop re-enters the switcher domain on every yield, so the
// per-transition map lookup is paid once at SysFrame time instead.
// Nil-safe.
func (p *Profiler) SystemRef(r SysRef) {
	if p == nil {
		return
	}
	p.stamp()
	p.cur = r.n
}

// SysFrame resolves a root-level pseudo-domain once, for hot paths that
// charge it per tick via ChargeSys. Nil-safe: a nil profiler returns
// the inert zero SysRef.
func (p *Profiler) SysFrame(label string) SysRef {
	if p == nil {
		return SysRef{}
	}
	return SysRef{n: p.root.child(label)}
}

// ChargeSys attributes exactly n of the cycles elapsed since the last
// transition to the pseudo-domain and the remainder to the current
// frame, without changing it — the single-stamp equivalent of
// System(dom); Tick(n); System(previous). The kernel's tick path calls
// it after advancing the clock by n. Nil-safe.
func (p *Profiler) ChargeSys(r SysRef, n uint64) {
	if p == nil {
		return
	}
	t := p.now()
	if p.cur != nil {
		p.cur.self += t - p.last - n
	}
	r.n.self += n
	p.last = t
}

// Hz returns the profiled clock's frequency.
func (p *Profiler) Hz() uint64 {
	if p == nil {
		return 0
	}
	return p.hz
}
