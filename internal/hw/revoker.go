package hw

import "github.com/cheriot-go/cheriot/internal/mem"

// Revoker is the background hardware unit that scans every capability in
// memory and invalidates those pointing to freed (revoked) granules. It
// runs in parallel with normal CPU execution (§2.1); in the simulation it
// makes progress whenever the clock advances, at RevokerCyclesPerGranule.
//
// The epoch counter follows the Cornucopia convention: it is incremented
// both when a sweep starts and when it finishes, so an odd epoch means a
// sweep is in progress. The allocator uses EpochsElapsedSince to decide
// when quarantined memory is safe to reuse.
type Revoker struct {
	mem      *mem.Memory
	epoch    uint64
	sweepPtr uint32 // next granule to visit while sweeping
	budget   uint64 // fractional cycles banked toward the next granule
	queued   bool   // a sweep was requested while one was running
	rate     uint64 // cycles per granule
	visited  uint64 // granules scanned by the current sweep
	onDone   func() // raises IRQRevoker

	// onSweep, when set, observes sweep lifecycle for the telemetry and
	// flight-recorder layers: called with start=true when a sweep begins
	// and start=false when it completes, with the epoch after the
	// transition and (on completion) the number of granules scanned.
	onSweep func(start bool, epoch, granules uint64)
}

// SetSweepHook installs (or clears, with nil) the sweep observer.
func (r *Revoker) SetSweepHook(hook func(start bool, epoch, granules uint64)) {
	r.onSweep = hook
}

// NewRevoker returns an idle revoker over m at the default sweep rate.
func NewRevoker(m *mem.Memory) *Revoker {
	return &Revoker{mem: m, rate: RevokerCyclesPerGranule}
}

// SetRate overrides the sweep rate in cycles per granule (ablation
// studies; faster silicon would lower it).
func (r *Revoker) SetRate(cyclesPerGranule uint64) {
	if cyclesPerGranule == 0 {
		cyclesPerGranule = 1
	}
	r.rate = cyclesPerGranule
}

// Epoch returns the revocation epoch counter (odd while sweeping).
func (r *Revoker) Epoch() uint64 { return r.epoch }

// Running reports whether a sweep is in progress.
func (r *Revoker) Running() bool { return r.epoch%2 == 1 }

// Request asks for a revocation sweep. If one is already running, another
// is queued to start when it completes, so a caller is always guaranteed a
// sweep that starts at or after the request.
func (r *Revoker) Request() {
	if r.Running() {
		r.queued = true
		return
	}
	r.epoch++ // becomes odd: sweeping
	r.sweepPtr = 0
	r.budget = 0
	r.visited = 0
	if r.onSweep != nil {
		r.onSweep(true, r.epoch, 0)
	}
}

// Step advances the revoker by the given number of CPU cycles.
func (r *Revoker) Step(cycles uint64) {
	if !r.Running() {
		return
	}
	r.budget += cycles
	granules := r.budget / r.rate
	if granules == 0 {
		return
	}
	// One long idle skip can be worth more granules than a uint32 holds;
	// no step visits more than the sweep has left.
	if left := uint64(r.mem.Granules() - r.sweepPtr); granules > left {
		granules = left
	}
	r.budget -= granules * r.rate
	before := r.sweepPtr
	r.sweepPtr = r.mem.SweepGranules(r.sweepPtr, uint32(granules))
	r.visited += uint64(r.sweepPtr - before)
	if r.sweepPtr >= r.mem.Granules() {
		r.epoch++ // becomes even: idle
		if r.onSweep != nil {
			r.onSweep(false, r.epoch, r.visited)
		}
		if r.onDone != nil {
			r.onDone()
		}
		if r.queued {
			r.queued = false
			r.Request()
		}
	}
}

// EpochsElapsedSince reports whether a full sweep has both started and
// finished since the (captured) epoch e. Memory freed at epoch e is safe
// to reuse once this returns true: every capability to it stored anywhere
// in memory has been invalidated, and capabilities in registers were
// already unusable via the load filter's revocation bits.
func (r *Revoker) EpochsElapsedSince(e uint64) bool {
	need := uint64(2 + e%2) // an in-progress sweep doesn't count
	return r.epoch-e >= need
}

// SweepCycles returns the cycle cost of one full sweep, for tools and
// benchmarks that reason about revocation latency.
func (r *Revoker) SweepCycles() uint64 {
	return uint64(r.mem.Granules()) * r.rate
}
