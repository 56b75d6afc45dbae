// Package telemetry is the unified observability layer of the simulated
// platform: the platform's one event vocabulary (Kind, Event); a registry
// that counts the events the kernel hands it, keeps the traced ones in a
// bounded ring and keeps per-compartment and per-thread cycle accounts;
// the one fixed-bucket histogram type, keyed by (compartment, metric);
// and the one Chrome trace_event encoder the trace, profile and span
// exporters share.
//
// A registry has two inputs: the events Record counts and the cycle
// accounts the clock charges. Every counter is a count of events: the
// kinds table names the counter each kind increments, the size histogram
// its Arg feeds and the gauge it moves (see Registry.Record), so
// compartments report a fact once, by emitting its event. Latencies are
// kept as exact samples by whoever measures them and bucketed once, into
// a Histogram that Merge combines with the registries' snapshots.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrumented site holds a possibly-nil
//     handle (a *CycleAccount, or the *Registry itself) and all methods
//     are nil-safe, so the disabled path is a single pointer comparison.
//     Telemetry never advances simulated time: enabling it cannot change
//     a benchmark's cycle counts.
//
//  2. O(1) on the hot path. Recording an event indexes the kinds table
//     and the registry's per-kind counts; no string is looked up.
//
//  3. Exact cycle attribution. All simulated time flows through
//     hw.Clock.Advance, which charges the currently-installed compartment
//     and thread accounts (see hw.Clock.SetCompAccount) beside the
//     profiler's current frame. The switcher moves them at every domain
//     transition, so the per-domain sums equal the clock's total exactly —
//     no lost or double-charged cycles.
//
// The package is a leaf: it imports nothing from the rest of the module,
// so every layer (hw, switcher, alloc, sched, netstack) can use it.
//
// Concurrency: the package holds no process-global mutable state — the
// only package-level variables are the immutable kinds table and bucket
// bounds. All counts, accounts, and trace state hang off a Registry, and
// each Registry belongs to exactly one System, so independent Systems run
// on concurrent goroutines without sharing telemetry (the fleet simulator
// depends on this; internal/core's TestSystemsRunConcurrently enforces
// it under -race). A single Registry is NOT internally locked: it must
// only be driven from its System's goroutine. Fleet-level aggregation
// happens after the fact via Merge on per-device Snapshots.
package telemetry

import "sort"

// Pseudo-domain names used by the kernel for cycles that belong to the
// TCB's mechanisms rather than to any loaded compartment. Angle brackets
// keep them out of the compartment namespace.
const (
	// DomainSwitcher is charged the switcher's own work: call/return
	// validation, trusted-stack bookkeeping, stack zeroing, trap entry.
	DomainSwitcher = "<switcher>"
	// DomainSched is charged scheduler policy work driven from the kernel
	// loop (entering the scheduler and picking the next thread). The
	// scheduler compartment's own entry points (futexes, sleeps) are
	// attributed to it by name like any other compartment.
	DomainSched = "<sched>"
	// DomainIdle is charged cycles with no runnable thread.
	DomainIdle = "<idle>"
)

// Key identifies one metric: the compartment (or pseudo-domain) it is
// charged to, and the metric name.
type Key struct {
	Compartment string
	Metric      string
}

// Histogram is a fixed-bucket histogram of one (compartment, metric):
// Bounds are upper edges in ascending order, with an implicit +Inf bucket
// at the end of Counts. Observations also track count, sum, min, and max.
// It is its own exported form: Snapshot lists the registry's, and Merge
// combines histograms that share bounds bucket-wise.
type Histogram struct {
	Compartment string   `json:"compartment"`
	Metric      string   `json:"metric"`
	Count       uint64   `json:"count"`
	Sum         uint64   `json:"sum"`
	Min         uint64   `json:"min"`
	Max         uint64   `json:"max"`
	Bounds      []uint64 `json:"bounds"`
	Counts      []uint64 `json:"counts"`
}

// DefaultSizeBuckets suits byte-size distributions (allocation sizes,
// frame lengths) on a platform with a 256 KiB SRAM.
var DefaultSizeBuckets = []uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384}

// NewHistogram returns an empty histogram over bounds, which it keeps
// (not a copy) and never modifies.
func NewHistogram(compartment, metric string, bounds []uint64) *Histogram {
	return &Histogram{Compartment: compartment, Metric: metric,
		Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// CycleAccount accumulates simulated cycles attributed to one compartment,
// pseudo-domain, or thread. The switcher installs an account's slot into
// the hw clock at each domain transition; Slot returns the raw cell the
// clock charges so the hw package needs no telemetry dependency.
type CycleAccount struct {
	name   string
	cycles uint64
}

// Name returns the domain the account charges.
func (a *CycleAccount) Name() string {
	if a == nil {
		return ""
	}
	return a.name
}

// Cycles returns the attributed cycle total (0 for nil).
func (a *CycleAccount) Cycles() uint64 {
	if a == nil {
		return 0
	}
	return a.cycles
}

// Slot returns the cell the hw clock adds cycles into, or nil for a nil
// account.
func (a *CycleAccount) Slot() *uint64 {
	if a == nil {
		return nil
	}
	return &a.cycles
}

// Registry is one simulation run's telemetry state. A nil *Registry is the
// disabled state: every method no-ops or returns nil handles, and
// instrumented code holds exactly one nil check on its hot path.
type Registry struct {
	counts      [KindCount]uint64     // events recorded, per kind
	sizes       [KindCount]*Histogram // each sized kind's histogram, once recorded
	quarantine  int64                 // the alloc/quarantine_bytes gauge
	quarantined bool                  // whether an event has moved it

	accounts       map[string]*CycleAccount
	threadAccounts map[string]*CycleAccount

	ring *Ring

	hz   uint64
	base uint64 // clock cycles already spent when accounting was armed
}

// NewRegistry returns an empty registry for a platform at the given clock
// frequency (used by the exporters to convert cycles to time).
func NewRegistry(hz uint64) *Registry {
	return &Registry{
		accounts:       make(map[string]*CycleAccount),
		threadAccounts: make(map[string]*CycleAccount),
		hz:             hz,
	}
}

// Hz returns the clock frequency the registry was built for.
func (r *Registry) Hz() uint64 {
	if r == nil {
		return 0
	}
	return r.hz
}

// SetBase records the cycles already on the clock when cycle accounting
// was armed; AttributedCycles+Base then equals the clock total.
func (r *Registry) SetBase(cycles uint64) {
	if r != nil {
		r.base = cycles
	}
}

// Base returns the cycle count at which accounting was armed.
func (r *Registry) Base() uint64 {
	if r == nil {
		return 0
	}
	return r.base
}

// Record counts ev under its kind, as the kinds table says: the kind's
// counter, size histogram and gauge. It keeps ev in the trace ring when
// the ring is attached and the kind is traced. The kernel hands it every
// event it stamps (see switcher.Kernel.Emit). Nil-safe.
func (r *Registry) Record(ev *Event) {
	if r == nil || ev.Kind >= KindCount {
		return
	}
	info := &kinds[ev.Kind]
	r.counts[ev.Kind]++
	if info.sizes.Metric != "" {
		h := r.sizes[ev.Kind]
		if h == nil {
			h = NewHistogram(info.sizes.Compartment, info.sizes.Metric, DefaultSizeBuckets)
			r.sizes[ev.Kind] = h
		}
		h.Observe(ev.Arg)
	}
	if info.quarantine != 0 {
		r.quarantine += info.quarantine * int64(ev.Arg)
		r.quarantined = true
	}
	if info.traced && r.ring != nil { // the ring takes a copy
		r.ring.Record(*ev)
	}
}

// Account returns the cycle account for a compartment or pseudo-domain,
// creating it on first use. Returns nil on a nil registry. O(1).
func (r *Registry) Account(domain string) *CycleAccount {
	if r == nil {
		return nil
	}
	a := r.accounts[domain]
	if a == nil {
		a = &CycleAccount{name: domain}
		r.accounts[domain] = a
	}
	return a
}

// ThreadAccount returns the cycle account for a thread, creating it on
// first use. Thread accounts are kept separate from compartment accounts:
// both partitions independently sum to the attributed total.
func (r *Registry) ThreadAccount(thread string) *CycleAccount {
	if r == nil {
		return nil
	}
	a := r.threadAccounts[thread]
	if a == nil {
		a = &CycleAccount{name: thread}
		r.threadAccounts[thread] = a
	}
	return a
}

// AttributedCycles sums every compartment/pseudo-domain account: with
// accounting armed (see switcher.Kernel.EnableTelemetry), it equals
// clock.Cycles() - Base() exactly.
func (r *Registry) AttributedCycles() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for _, a := range r.accounts {
		total += a.cycles
	}
	return total
}

// Accounts returns the compartment/pseudo-domain accounts sorted by
// descending cycles (name-ascending among ties, so output is stable).
func (r *Registry) Accounts() []*CycleAccount {
	if r == nil {
		return nil
	}
	return sortedAccounts(r.accounts)
}

// ThreadAccounts returns the per-thread accounts, sorted like Accounts.
func (r *Registry) ThreadAccounts() []*CycleAccount {
	if r == nil {
		return nil
	}
	return sortedAccounts(r.threadAccounts)
}

func sortedAccounts(m map[string]*CycleAccount) []*CycleAccount {
	out := make([]*CycleAccount, 0, len(m))
	for _, a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cycles != out[j].cycles {
			return out[i].cycles > out[j].cycles
		}
		return out[i].name < out[j].name
	})
	return out
}

// EnableTrace attaches an event ring of the given capacity (replacing any
// existing one, events and drop count included). Capacity <= 0 detaches
// the ring.
func (r *Registry) EnableTrace(capacity int) {
	if r == nil {
		return
	}
	if capacity <= 0 {
		r.ring = nil
		return
	}
	r.ring = NewRing(capacity)
}

// Ring returns the attached event ring, or nil. Record keeps the events
// of the traced kinds in it.
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}
