package telemetry

import (
	"fmt"
	"strings"
)

// Kind classifies events: the one event vocabulary of the simulated
// platform. The kernel hands every event to the telemetry registry, which
// counts it and keeps the traced kinds in its ring (see Registry.Record),
// and to the flight recorder, which keeps its own selection (see
// internal/flightrec).
type Kind uint8

// Event kinds, with the Event fields each one uses. Kinds are only ever
// appended, so the kind numbers in flight-recorder dumps stay put.
const (
	KindSwitch       Kind = iota // context switch to Thread
	KindCall                     // Thread calls From -> To.Entry (Arg = the callee's interrupt posture)
	KindReturn                   // Thread returns from To.Entry back into From
	KindTrap                     // trap of Thread in To.Entry (Detail = cause, Arg = faulting address)
	KindUnwind                   // forced or fault unwind of Thread out of To
	KindFutexWait                // Thread, called from From, waits on a futex word (Arg = address)
	KindFutexWake                // From wakes waiter Thread ("" for an interrupt; Arg = address)
	KindSleep                    // Thread, called from From, sleeps (Arg = cycles)
	KindAlloc                    // heap allocation owned by To (Entry = allocator entry, Detail = quota, Parent = heap root, Node, Arg = bytes, Arg2 = base)
	KindFree                     // final heap free by From of To's allocation (Node, Arg = bytes, Arg2 = base)
	KindQuarantine               // freed range enters To's quarantine (Arg = bytes)
	KindSweepStart               // revocation sweep begins (Arg = epoch)
	KindSweepEnd                 // revocation sweep completes (Arg = epoch, Arg2 = granules)
	KindNetRx                    // network stack To accepts a frame (Arg = bytes)
	KindNetTx                    // network stack To transmits a frame (Arg = bytes)
	KindSend                     // From writes to a socket through To.Entry (Arg = bytes)
	KindRecv                     // To delivers a receive to From (Arg = bytes)
	KindRoot                     // provenance root of To's region (Detail = note, Arg = base, Arg2 = top); never in a ring
	KindDerive                   // capability derived in To (Detail = note, Parent, Node, Arg = base, Arg2 = top)
	KindSeal                     // To seals a capability (Detail = note, Arg = base)
	KindUnseal                   // From presents a sealed capability to To (Arg = 1 if the authority matched)
	KindClaim                    // heap claim by To (Node, Arg = bytes, Arg2 = base)
	KindLoadFiltered             // load filter untagged a revoked capability in To (Arg = base, Arg2 = address)
	KindReboot                   // forced micro-reboot of To from Thread (Arg = completed reboots)
	KindPublish                  // From publishes through To.Entry, the MQTT client (Arg = payload bytes)
	KindPreempt                  // Thread traps into the scheduler: preempted, or yielding
	KindSweepWait                // an allocation charged to To waits for a revocation sweep (Arg = bytes)
	KindRelease                  // a swept range leaves To's quarantine for the free list (Arg = bytes)

	// KindCount is the number of kinds; the exhaustiveness tests iterate
	// up to it so an added kind without a String/Layer entry fails CI.
	KindCount
)

// kindInfo is one row of the kinds table: how the kind renders, the layer
// that emits it, and what Registry.Record does with an event of it.
type kindInfo struct {
	name, layer string
	traced      bool  // the trace ring keeps the event
	counter     Key   // the counter the event increments (zero: none)
	kernel      bool  // counter is the kernel's: listed from the start, not once counted
	sizes       Key   // the size histogram the event's Arg feeds (zero: none)
	quarantine  int64 // moves the alloc/quarantine_bytes gauge by quarantine×Arg
}

var kinds = [KindCount]kindInfo{
	KindSwitch:     {name: "switch", layer: "kernel", traced: true, counter: Key{DomainSwitcher, "context_switches"}, kernel: true},
	KindCall:       {name: "call", layer: "kernel", traced: true, counter: Key{DomainSwitcher, "compartment_calls"}, kernel: true},
	KindReturn:     {name: "return", layer: "kernel", traced: true},
	KindTrap:       {name: "trap", layer: "kernel", traced: true, counter: Key{DomainSwitcher, "traps"}, kernel: true},
	KindUnwind:     {name: "unwind", layer: "kernel", traced: true, counter: Key{DomainSwitcher, "unwinds"}, kernel: true},
	KindFutexWait:  {name: "futex-wait", layer: "sched", traced: true, counter: Key{"sched", "futex_waits"}},
	KindFutexWake:  {name: "futex-wake", layer: "sched", traced: true, counter: Key{"sched", "futex_wakes"}},
	KindSleep:      {name: "sleep", layer: "sched", traced: true, counter: Key{"sched", "sleeps"}},
	KindAlloc:      {name: "alloc", layer: "alloc", traced: true, counter: Key{"alloc", "mallocs"}, sizes: Key{"alloc", "size_bytes"}},
	KindFree:       {name: "free", layer: "alloc", traced: true, counter: Key{"alloc", "frees"}},
	KindQuarantine: {name: "quarantine", layer: "alloc", traced: true, quarantine: +1},
	KindSweepStart: {name: "sweep-start", layer: "alloc", traced: true},
	KindSweepEnd:   {name: "sweep-end", layer: "alloc", traced: true, counter: Key{"alloc", "revoker_sweeps"}},
	KindNetRx:      {name: "net-rx", layer: "net", traced: true, counter: Key{"tcpip", "rx_frames"}, sizes: Key{"tcpip", "rx_bytes"}},
	KindNetTx:      {name: "net-tx", layer: "net", traced: true, counter: Key{"tcpip", "tx_segments"}, sizes: Key{"tcpip", "tx_bytes"}},
	KindSend:       {name: "send", layer: "net", traced: true, counter: Key{"netapi", "sends"}},
	KindRecv:       {name: "recv", layer: "net", traced: true, counter: Key{"netapi", "recvs"}},
	// A provenance root is created by no operation: it renders "none".
	KindRoot:         {name: "none", layer: "cap"},
	KindDerive:       {name: "derive", layer: "cap"},
	KindSeal:         {name: "seal", layer: "cap"},
	KindUnseal:       {name: "unseal", layer: "cap"},
	KindClaim:        {name: "claim", layer: "alloc"},
	KindLoadFiltered: {name: "load-filtered", layer: "cap"},
	KindReboot:       {name: "reboot", layer: "kernel"},
	KindPublish:      {name: "publish", layer: "net", traced: true, counter: Key{"mqtt", "publishes"}},
	KindPreempt:      {name: "preempt", layer: "sched", counter: Key{DomainSched, "preemptions"}, kernel: true},
	KindSweepWait:    {name: "sweep-wait", layer: "alloc", counter: Key{"alloc", "sweep_waits"}},
	KindRelease:      {name: "release", layer: "alloc", counter: Key{"alloc", "quarantine_released"}, quarantine: -1},
}

// String renders the kind for logs, timelines and dumps. Every kind must
// have a non-"?" rendering; TestKindStringsExhaustive enforces it.
func (k Kind) String() string {
	if k >= KindCount {
		return "?"
	}
	return kinds[k].name
}

// KindFromString parses the rendering String produces; it returns
// KindCount for an unknown name.
func KindFromString(s string) Kind {
	for k := Kind(0); k < KindCount; k++ {
		if kinds[k].name == s {
			return k
		}
	}
	return KindCount
}

// Layer buckets kinds into the subsystem that emits them; the Chrome
// exporter uses it as the event category.
func (k Kind) Layer() string {
	if k >= KindCount {
		return "?"
	}
	return kinds[k].layer
}

// Interrupt postures carried in a call event's Arg, numbered as
// firmware.Posture numbers them.
const (
	PostureInherit = iota
	PostureEnabled
	PostureDisabled
)

func postureString(p uint64) string {
	switch p {
	case PostureDisabled:
		return "irq-disabled"
	case PostureEnabled:
		return "irq-enabled"
	default:
		return "irq-inherit"
	}
}

// Event is one record: what happened, when (simulated cycles), and in
// whose context. Field use varies by kind (see the Kind constants);
// unused fields stay zero. Strings must outlive the rings holding them
// (on the hot path they are static firmware names).
type Event struct {
	Cycle  uint64 `json:"cycle"`
	Kind   Kind   `json:"kind"`
	Thread string `json:"thread,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Entry  string `json:"entry,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Node and Parent are provenance ids, assigned by the flight recorder.
	Node   uint32 `json:"node,omitempty"`
	Parent uint32 `json:"parent,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
	Arg2   uint64 `json:"arg2,omitempty"`
}

// String renders the event as one timeline line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12d  %-13s", e.Cycle, e.Kind)
	switch e.Kind {
	case KindSwitch:
		fmt.Fprintf(&b, " -> %s", e.Thread)
	case KindPreempt:
		fmt.Fprintf(&b, " %s", e.Thread)
	case KindCall:
		fmt.Fprintf(&b, " %s: %s -> %s.%s [%s]", e.Thread, e.From, e.To, e.Entry, postureString(e.Arg))
	case KindReturn:
		fmt.Fprintf(&b, " %s: %s.%s -> %s", e.Thread, e.To, e.Entry, e.From)
	case KindUnwind:
		fmt.Fprintf(&b, " %s: unwound out of %s", e.Thread, e.To)
	case KindTrap:
		fmt.Fprintf(&b, " %s: %s in %s at 0x%08x", e.Thread, e.Detail, e.To, uint32(e.Arg))
	case KindFutexWait:
		fmt.Fprintf(&b, " %s (%s) on 0x%08x", e.Thread, e.From, uint32(e.Arg))
	case KindFutexWake:
		waker := e.From
		if waker == "" {
			waker = "irq"
		}
		fmt.Fprintf(&b, " %s wakes %s on 0x%08x", waker, e.Thread, uint32(e.Arg))
	case KindSleep:
		fmt.Fprintf(&b, " %s (%s) for %d cycles", e.Thread, e.From, e.Arg)
	case KindAlloc:
		fmt.Fprintf(&b, " %s: %d bytes at 0x%08x (quota %q, node %d)",
			e.To, e.Arg, uint32(e.Arg2), e.Detail, e.Node)
	case KindFree:
		fmt.Fprintf(&b, " %s frees %d bytes at 0x%08x (owner %s)", e.From, e.Arg, uint32(e.Arg2), e.To)
	case KindQuarantine, KindNetRx, KindNetTx, KindSweepWait, KindRelease:
		fmt.Fprintf(&b, " %s: %d bytes", e.To, e.Arg)
	case KindSend, KindPublish:
		fmt.Fprintf(&b, " %s -> %s: %d bytes", e.From, e.To, e.Arg)
	case KindRecv:
		fmt.Fprintf(&b, " %s <- %s: %d bytes", e.From, e.To, e.Arg)
	case KindSweepStart:
		fmt.Fprintf(&b, " epoch %d", e.Arg)
	case KindSweepEnd:
		fmt.Fprintf(&b, " epoch %d (%d granules)", e.Arg, e.Arg2)
	case KindDerive:
		fmt.Fprintf(&b, " %s node %d <- %d (%s)", e.To, e.Node, e.Parent, e.Detail)
	case KindSeal:
		fmt.Fprintf(&b, " %s seals 0x%08x (%s)", e.To, uint32(e.Arg), e.Detail)
	case KindUnseal:
		ok := "denied"
		if e.Arg == 1 {
			ok = "ok"
		}
		fmt.Fprintf(&b, " %s for %s: %s", e.To, e.From, ok)
	case KindClaim:
		fmt.Fprintf(&b, " %s claims 0x%08x (%d bytes)", e.To, uint32(e.Arg2), e.Arg)
	case KindLoadFiltered:
		fmt.Fprintf(&b, " %s loaded revoked cap base=0x%08x addr=0x%08x", e.To, uint32(e.Arg), uint32(e.Arg2))
	case KindReboot:
		fmt.Fprintf(&b, " %s micro-reboot #%d", e.To, e.Arg)
	}
	return b.String()
}

// Ring is a fixed-capacity event ring. When full, new events overwrite the
// oldest and the drop counter records how many were lost — readers can
// tell a complete trace from a truncated one. A nil *Ring is the disabled
// ring: every method is a no-op.
type Ring struct {
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding up to capacity events (nil for
// capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

// Events returns the recorded events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events were overwritten because the ring
// wrapped. Zero means Events() is the complete record.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}
