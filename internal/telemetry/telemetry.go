// Package telemetry is the unified observability layer of the simulated
// platform: typed counters, gauges, and fixed-bucket histograms keyed by
// (compartment, metric); per-compartment and per-thread cycle accounting;
// the platform's one event vocabulary (Kind, Event) and its bounded ring,
// which backs both the kernel trace and the flight recorder; and the
// one Chrome trace_event encoder the trace, profile and span exporters
// share.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrumented site holds a possibly-nil
//     handle (a *Counter, *Histogram, *CycleAccount, or the *Registry
//     itself) and all methods are nil-safe, so the disabled path is a
//     single pointer comparison. Telemetry never advances simulated time:
//     enabling it cannot change a benchmark's cycle counts.
//
//  2. O(1) on the hot path. Handle lookup is one map access on a value
//     key; instrumented subsystems fetch handles once and cache them, so
//     steady-state updates are a nil check plus an add.
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
// only package-level variables are immutable bucket-bound defaults. All
// counters, accounts, and trace state hang off a Registry, and each
// Registry belongs to exactly one System, so independent Systems run on
// concurrent goroutines without sharing telemetry (the fleet simulator
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

// Counter is a monotonically-increasing event count. All methods are safe
// on a nil receiver, so disabled-telemetry call sites pay one nil check.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can move both ways (quarantine bytes, ready-queue
// depth). Nil-safe like Counter.
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram: bounds are upper edges in
// ascending order, with an implicit +Inf bucket at the end. Observations
// also track count, sum, min, and max.
type Histogram struct {
	bounds []uint64
	counts []uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// DefaultSizeBuckets suits byte-size distributions (allocation sizes,
// frame lengths) on a platform with a 256 KiB SRAM.
var DefaultSizeBuckets = []uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384}

// DefaultCycleBuckets suits latency distributions in simulated cycles.
var DefaultCycleBuckets = []uint64{100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples (0 for nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns the bucket upper bounds and per-bucket counts; the last
// count is the +Inf bucket. Nil-safe (returns nils).
func (h *Histogram) Buckets() (bounds []uint64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	return h.bounds, h.counts
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
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram

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
		counters:       make(map[Key]*Counter),
		gauges:         make(map[Key]*Gauge),
		hists:          make(map[Key]*Histogram),
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

// Counter returns the counter for (compartment, metric), creating it on
// first use. Returns nil on a nil registry. O(1).
func (r *Registry) Counter(compartment, metric string) *Counter {
	if r == nil {
		return nil
	}
	k := Key{compartment, metric}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (compartment, metric), creating it on first
// use. Returns nil on a nil registry. O(1).
func (r *Registry) Gauge(compartment, metric string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key{compartment, metric}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (compartment, metric), creating it
// with the given bucket bounds on first use (later calls keep the original
// bounds). Returns nil on a nil registry. O(1).
func (r *Registry) Histogram(compartment, metric string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{compartment, metric}
	h := r.hists[k]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[k] = h
	}
	return h
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

// Ring returns the attached event ring, or nil. The kernel records the
// events of the kinds the trace holds into it (see Kind.Traced).
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// sortedKeys returns map keys ordered by (compartment, metric) so exports
// are deterministic.
func sortedKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Compartment != keys[j].Compartment {
			return keys[i].Compartment < keys[j].Compartment
		}
		return keys[i].Metric < keys[j].Metric
	})
	return keys
}
