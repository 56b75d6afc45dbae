// Package flightrec is the per-device black box: a fixed-size ring of
// the platform's events recording what the machine was doing —
// capability derivations with parent→child provenance ids, seal/unseal
// mediation, cross-compartment calls and returns with interrupt
// posture, heap alloc/free/claim with the owning allocation capability,
// revocation sweeps, futex traffic — plus, on every capability fault, a
// structured post-mortem report that walks provenance backwards ("this
// dangling capability was derived in compartment X from allocation #N,
// freed during sweep #M").
//
// The recorder is one of the kernel's event sinks: it speaks
// internal/telemetry's Kind and Event, keeps them in a telemetry.Ring,
// and Record decides in one switch which kinds it keeps and what
// bookkeeping each implies. The package imports nothing from the module
// but cap, hw and telemetry, holds no process-global mutable state, and
// every method is nil-safe, so the kernel pays one nil check when the
// recorder is disabled. One Recorder belongs to one simulated device and
// is driven from that device's single goroutine; independent Recorders
// (one per fleet device) need no locking.
//
// The event ring is preallocated at New, and events reference only
// strings the caller already holds (compartment, thread, and entry names
// are static firmware strings), so recording a call, return, futex or
// seal event allocates nothing. The rest of the bookkeeping does: the
// provenance node table starts at capacity 64 and grows by append up to
// maxNodes entries (after which derivations land in the ring unlinked),
// every alloc event allocates an *AllocRecord for the live map, and the
// freed-allocation history grows by append up to maxFreed entries. Fault
// reports are assembled lazily, only when a trap actually happens.
package flightrec

import (
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Node is one provenance-graph vertex: a capability (or capability
// family) with the compartment and event that created it and a link to
// the capability it was derived from. ID 0 means "no node".
type Node struct {
	ID     uint32         `json:"id"`
	Parent uint32         `json:"parent,omitempty"`
	Kind   telemetry.Kind `json:"kind"`
	Comp   string         `json:"comp,omitempty"`
	Cycle  uint64         `json:"cycle"`
	Base   uint32         `json:"base"`
	Top    uint32         `json:"top"`
	Note   string         `json:"note,omitempty"`
}

// AllocRecord is the recorder's view of one heap allocation: who
// allocated it against which quota, and — once freed — who freed it and
// which revocation sweep invalidated the last capabilities to it.
type AllocRecord struct {
	Node       uint32 `json:"node"`
	Seq        uint64 `json:"seq"` // allocation #Seq, monotonic per device
	Base       uint32 `json:"base"`
	Size       uint32 `json:"size"`
	Owner      string `json:"owner"` // allocating compartment (quota owner)
	Quota      string `json:"quota"`
	AllocCycle uint64 `json:"alloc_cycle"`
	// Free-side fields; zero while the allocation is live.
	FreeCycle uint64 `json:"free_cycle,omitempty"`
	FreedBy   string `json:"freed_by,omitempty"`
	FreeEpoch uint64 `json:"free_epoch,omitempty"`
	// SweepEpoch is the epoch of the first revocation sweep that
	// completed after the free — the sweep that cleared every in-memory
	// capability to this object.
	SweepEpoch uint64 `json:"sweep_epoch,omitempty"`
}

// Live reports whether the allocation has not been freed.
func (a *AllocRecord) Live() bool { return a.FreeCycle == 0 && a.FreedBy == "" }

// Bounds on the recorder's side tables. The event ring capacity is the
// caller's choice; these keep the provenance structures fixed-size too.
const (
	maxNodes   = 4096
	maxFreed   = 512
	maxReports = 32
	tailEvents = 48
)

// Recorder is the per-device flight recorder. All methods are nil-safe.
type Recorder struct {
	device string
	ring   *telemetry.Ring

	nodes     []Node // index 0 unused; IDs are indices
	nodesFull uint64 // derivations dropped after the table filled

	live     map[uint32]*AllocRecord // by base
	freed    []AllocRecord           // ring, oldest first once full
	freedPos int
	allocSeq uint64

	sweeps uint64 // completed sweeps observed
	// epoch is the revoker's epoch as of the last sweep event: every
	// epoch step is a sweep start or end, so a recorder armed before the
	// first sweep always knows the epoch a free happens in.
	epoch uint64

	reports      []Report
	reportsTotal uint64
}

// New returns a recorder whose event ring holds capacity events.
// capacity <= 0 returns nil (the disabled recorder).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{
		ring:  telemetry.NewRing(capacity),
		nodes: make([]Node, 1, 64), // ID 0 reserved
		live:  make(map[uint32]*AllocRecord),
	}
}

// Enabled reports whether the recorder is active (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetDevice names the device in dumps and reports.
func (r *Recorder) SetDevice(name string) {
	if r != nil {
		r.device = name
	}
}

// Device returns the device name.
func (r *Recorder) Device() string {
	if r == nil {
		return ""
	}
	return r.device
}

// Record is the recorder's sink for one cycle-stamped event: it does the
// provenance, allocation and crash-report bookkeeping the event implies
// and keeps it in the ring if it is a kind the recorder keeps. cause is
// the trap a KindTrap event reports (nil for every other kind): the
// event is kept, with a post-mortem report, unless the trap is a forced
// unwind — the switcher evicting a thread, not a capability fault.
// Record returns the provenance node it assigned to a root, derive or
// alloc event, or 0.
func (r *Recorder) Record(ev telemetry.Event, cause *hw.Trap) uint32 {
	if r == nil {
		return 0
	}
	switch ev.Kind {
	case telemetry.KindRoot:
		return r.newNode(ev, uint32(ev.Arg), uint32(ev.Arg2), ev.Detail) // provenance only
	case telemetry.KindDerive:
		ev.Node = r.newNode(ev, uint32(ev.Arg), uint32(ev.Arg2), ev.Detail)
	case telemetry.KindAlloc:
		base, size := uint32(ev.Arg2), uint32(ev.Arg)
		ev.Node = r.newNode(ev, base, base+size, ev.Entry)
		r.allocSeq++
		r.live[base] = &AllocRecord{Node: ev.Node, Seq: r.allocSeq, Base: base, Size: size,
			Owner: ev.To, Quota: ev.Detail, AllocCycle: ev.Cycle}
	case telemetry.KindFree:
		r.free(&ev)
	case telemetry.KindClaim:
		if ar, ok := r.live[uint32(ev.Arg2)]; ok {
			ev.Node = ar.Node
		}
	case telemetry.KindSweepStart:
		r.epoch = ev.Arg
	case telemetry.KindSweepEnd:
		r.epoch = ev.Arg
		r.sweeps++
		for i := range r.freed {
			f := &r.freed[i]
			if f.SweepEpoch == 0 && f.FreeEpoch < ev.Arg {
				f.SweepEpoch = ev.Arg
			}
		}
	case telemetry.KindReboot:
		// The compartment's most recent fault escalated to the reboot.
		for i := len(r.reports) - 1; i >= 0; i-- {
			if r.reports[i].Compartment == ev.To {
				r.reports[i].Reboot = true
				break
			}
		}
	case telemetry.KindTrap:
		if cause == nil || cause.Code == hw.TrapForcedUnwind {
			return 0
		}
		r.ring.Record(ev)
		r.report(ev, cause)
		return 0
	case telemetry.KindCall, telemetry.KindReturn, telemetry.KindUnwind,
		telemetry.KindFutexWait, telemetry.KindFutexWake,
		telemetry.KindSeal, telemetry.KindUnseal, telemetry.KindLoadFiltered:
	default:
		return 0 // switches, sleeps, quarantine, network: telemetry's alone
	}
	r.ring.Record(ev)
	return ev.Node
}

// newNode appends a provenance node for ev covering [base, top), returning
// its id (0 once the table is full — derivation events still land in the
// ring, unlinked).
func (r *Recorder) newNode(ev telemetry.Event, base, top uint32, note string) uint32 {
	if len(r.nodes) >= maxNodes {
		r.nodesFull++
		return 0
	}
	id := uint32(len(r.nodes))
	r.nodes = append(r.nodes, Node{ID: id, Parent: ev.Parent, Kind: ev.Kind, Comp: ev.To,
		Cycle: ev.Cycle, Base: base, Top: top, Note: note})
	return id
}

// free moves the allocation at the event's base to the freed history and
// completes the event with the allocation's owner and provenance node.
func (r *Recorder) free(ev *telemetry.Event) {
	base := uint32(ev.Arg2)
	ar, ok := r.live[base]
	if !ok {
		return
	}
	delete(r.live, base)
	ar.FreeCycle = ev.Cycle
	ar.FreedBy = ev.From
	ar.FreeEpoch = r.epoch
	ev.To, ev.Node = ar.Owner, ar.Node
	// Keep the most recent maxFreed freed allocations for post-mortem
	// matching.
	if len(r.freed) < maxFreed {
		r.freed = append(r.freed, *ar)
	} else {
		r.freed[r.freedPos] = *ar
		r.freedPos = (r.freedPos + 1) % maxFreed
	}
}

// Sweeps returns the number of completed sweeps observed.
func (r *Recorder) Sweeps() uint64 {
	if r == nil {
		return 0
	}
	return r.sweeps
}

// Events returns the ring's events in chronological order.
func (r *Recorder) Events() []telemetry.Event {
	if r == nil {
		return nil
	}
	return r.ring.Events()
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.ring.Len()
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Nodes returns the provenance node table (index 0 is the reserved
// null node).
func (r *Recorder) Nodes() []Node {
	if r == nil {
		return nil
	}
	return append([]Node(nil), r.nodes...)
}

// NodeByID returns a provenance node, or a zero Node for unknown ids.
func (r *Recorder) NodeByID(id uint32) Node {
	if r == nil || id == 0 || int(id) >= len(r.nodes) {
		return Node{}
	}
	return r.nodes[id]
}

// LiveAllocations returns the live-allocation records sorted by base.
func (r *Recorder) LiveAllocations() []AllocRecord {
	if r == nil {
		return nil
	}
	out := make([]AllocRecord, 0, len(r.live))
	for _, a := range r.live {
		out = append(out, *a)
	}
	sortAllocs(out)
	return out
}

// FreedAllocations returns the retained freed-allocation history,
// oldest first.
func (r *Recorder) FreedAllocations() []AllocRecord {
	if r == nil {
		return nil
	}
	if len(r.freed) < maxFreed {
		return append([]AllocRecord(nil), r.freed...)
	}
	out := make([]AllocRecord, 0, len(r.freed))
	out = append(out, r.freed[r.freedPos:]...)
	out = append(out, r.freed[:r.freedPos]...)
	return out
}

func sortAllocs(a []AllocRecord) {
	// Insertion sort: the slice is small and this keeps the package free
	// of sort's interface allocations on the snapshot path.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1].Base > a[j].Base; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// findAllocation matches an address to the allocation covering it:
// live allocations first, then the freed history newest-first (a
// dangling capability refers to the most recent allocation at that
// address).
func (r *Recorder) findAllocation(addr uint32) *AllocRecord {
	for base, a := range r.live {
		if addr >= base && addr < base+a.Size {
			out := *a
			return &out
		}
	}
	freed := r.FreedAllocations()
	for i := len(freed) - 1; i >= 0; i-- {
		a := freed[i]
		if addr >= a.Base && addr < a.Base+a.Size {
			return &a
		}
	}
	return nil
}

// Provenance walks the provenance chain for a capability: the node
// whose bounds cover the capability's base (preferring its matched
// allocation's node), then parent links back to the root. The chain is
// ordered newest first.
func (r *Recorder) Provenance(c cap.Capability) ([]Node, *AllocRecord) {
	if r == nil {
		return nil, nil
	}
	// A capability untagged by the load filter keeps its bounds, but one
	// reloaded from memory after the sweep cleared its tag bit is an
	// address-only value (base and top both zero): fall back to the
	// cursor in that case.
	addr := c.Base()
	if c.Top() == c.Base() {
		addr = c.Address()
	}
	alloc := r.findAllocation(addr)
	var start uint32
	if alloc != nil {
		start = alloc.Node
	} else {
		// Fall back to the most recent node covering the address.
		for i := len(r.nodes) - 1; i >= 1; i-- {
			n := r.nodes[i]
			if addr >= n.Base && addr < n.Top {
				start = n.ID
				break
			}
		}
	}
	var chain []Node
	for id := start; id != 0 && len(chain) < 64; {
		n := r.NodeByID(id)
		if n.ID == 0 {
			break
		}
		chain = append(chain, n)
		id = n.Parent
	}
	return chain, alloc
}
