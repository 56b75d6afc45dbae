// Package hw simulates the CHERIoT core's non-memory hardware: the cycle
// clock, trap codes, the interrupt controller, the background revoker, and
// the handful of memory-mapped devices the RTOS drives (timer, revoker
// control, UART, LED bank, network adaptor).
//
// All time in the simulation is this package's cycle counter. Calibrated
// cycle costs for kernel operations live in costs.go, with the
// paper-reported numbers cited next to each constant; benchmarks report
// simulated cycles, not host time.
package hw

import "time"

// DefaultHz matches the paper's evaluation platform: an Arty A7-100T FPGA
// clocked at 33 MHz (§5.3).
const DefaultHz = 33_000_000

// Clock is the deterministic cycle counter of the simulated core.
//
// It is also the machine's only cycle-attribution engine. It carries three
// optional attribution slots, raw cells that every Advance also adds into:
// the running compartment's and thread's telemetry accounts and the
// profiler's current frame. The switcher installs the cells at each domain
// transition, so all simulated time is attributed at the single point it
// is created, and every partition sums to the clock exactly. With no slots
// installed (instruments disabled) the cost is three nil checks per
// Advance.
type Clock struct {
	cycles uint64
	hz     uint64

	acctComp   *uint64
	acctThread *uint64
	acctFrame  *uint64
}

// NewClock returns a clock at cycle zero ticking at hz.
func NewClock(hz uint64) *Clock {
	if hz == 0 {
		hz = DefaultHz
	}
	return &Clock{hz: hz}
}

// Cycles returns the number of cycles elapsed since boot.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Hz returns the clock frequency.
func (c *Clock) Hz() uint64 { return c.hz }

// Advance moves the clock forward by n cycles, charging any installed
// attribution slots.
func (c *Clock) Advance(n uint64) {
	c.cycles += n
	if c.acctComp != nil {
		*c.acctComp += n
	}
	if c.acctThread != nil {
		*c.acctThread += n
	}
	if c.acctFrame != nil {
		*c.acctFrame += n
	}
}

// SetCompAccount installs the compartment-attribution cell (nil to detach)
// and returns the previously-installed one, so callers can save/restore
// around a domain transition.
func (c *Clock) SetCompAccount(cell *uint64) *uint64 {
	prev := c.acctComp
	c.acctComp = cell
	return prev
}

// SetThreadAccount installs the thread-attribution cell (nil to detach)
// and returns the previous one.
func (c *Clock) SetThreadAccount(cell *uint64) *uint64 {
	prev := c.acctThread
	c.acctThread = cell
	return prev
}

// SetFrameAccount installs the profile-frame cell (nil to detach) and
// returns the previous one.
func (c *Clock) SetFrameAccount(cell *uint64) *uint64 {
	prev := c.acctFrame
	c.acctFrame = cell
	return prev
}

// Elapsed converts the current cycle count to wall-clock time at the
// simulated frequency.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.cycles * uint64(time.Second) / c.hz)
}

// CyclesIn converts a duration to cycles at the simulated frequency.
func (c *Clock) CyclesIn(d time.Duration) uint64 {
	return uint64(d) * c.hz / uint64(time.Second)
}
