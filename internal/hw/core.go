package hw

import "github.com/cheriot-go/cheriot/internal/mem"

// Core bundles the simulated SoC: SRAM, clock, revoker, interrupt
// controller, and an event queue for device deadlines (timer expiry,
// network frame arrival). The switcher drives it; compartment code reaches
// it only through capability-checked accessors.
type Core struct {
	Mem     *mem.Memory
	Clock   *Clock
	Revoker *Revoker

	irq    irqController
	events eventQueue
}

// NewCore builds a core with the given SRAM size and clock frequency
// (0 means DefaultHz).
func NewCore(sramSize uint32, hz uint64) *Core {
	return NewCoreWith(mem.New(sramSize), hz)
}

// NewCoreWith builds a core around existing SRAM. Snapshot/fork boot uses
// it to wrap a restored memory image in a fresh clock, revoker, and
// interrupt controller — the boot-time state of all three is their zero
// state, so a forked core is indistinguishable from a cold-booted one.
func NewCoreWith(m *mem.Memory, hz uint64) *Core {
	c := &Core{
		Mem:     m,
		Clock:   NewClock(hz),
		Revoker: NewRevoker(m),
	}
	c.Revoker.onDone = func() { c.RaiseIRQ(IRQRevoker) }
	return c
}

// Tick advances simulated time by n cycles: the clock moves, the revoker
// makes proportional progress, and device events fire *at* their
// deadlines — an event that schedules a follow-up within the same tick
// sees the correct intermediate time.
func (c *Core) Tick(n uint64) { c.advanceTo(c.Clock.Cycles() + n) }

// SkipTo advances the clock directly to the given cycle, if it is in the
// future. The scheduler uses it to model the idle thread: with no runnable
// thread, time passes until the next device event.
func (c *Core) SkipTo(cycle uint64) { c.advanceTo(cycle) }

// advanceTo moves time forward to target, pausing at every event deadline
// so that fired events observe their own firing time.
func (c *Core) advanceTo(target uint64) {
	for {
		deadline, ok := c.NextEvent()
		if !ok || deadline > target {
			break
		}
		if deadline > c.Clock.Cycles() {
			delta := deadline - c.Clock.Cycles()
			c.Clock.Advance(delta)
			c.Revoker.Step(delta)
		}
		c.fireDue()
	}
	if target > c.Clock.Cycles() {
		delta := target - c.Clock.Cycles()
		c.Clock.Advance(delta)
		c.Revoker.Step(delta)
	}
}

// RaiseIRQ latches an interrupt line pending.
func (c *Core) RaiseIRQ(line IRQ) { c.irq.raise(line) }

// AckIRQ clears a pending interrupt line.
func (c *Core) AckIRQ(line IRQ) { c.irq.clear(line) }

// PendingIRQ returns the highest-priority pending line, if any.
func (c *Core) PendingIRQ() (IRQ, bool) { return c.irq.next() }

// IRQPending reports whether any interrupt is pending.
func (c *Core) IRQPending() bool { return c.irq.anyPending() }

// At schedules fn to run when the clock reaches cycle. Events fire during
// Tick/SkipTo, in deadline order (FIFO among equal deadlines).
func (c *Core) At(cycle uint64, fn func()) { c.events.push(event{cycle: cycle, fn: fn}) }

// After schedules fn to run n cycles from now.
func (c *Core) After(n uint64, fn func()) { c.At(c.Clock.Cycles()+n, fn) }

// AfterArg schedules fn(arg) to run n cycles from now, in the same order
// as At's events. A timer armed again and again with one fn built up
// front, and a new arg each time, allocates no closure.
func (c *Core) AfterArg(n uint64, fn func(uint64), arg uint64) {
	c.events.push(event{cycle: c.Clock.Cycles() + n, fnArg: fn, arg: arg})
}

// NextEvent returns the deadline of the earliest pending event, and whether
// one exists.
func (c *Core) NextEvent() (uint64, bool) {
	if len(c.events.items) == 0 {
		return 0, false
	}
	return c.events.items[0].cycle, true
}

func (c *Core) fireDue() {
	now := c.Clock.Cycles()
	for len(c.events.items) > 0 && c.events.items[0].cycle <= now {
		if ev := c.events.pop(); ev.fnArg != nil {
			ev.fnArg(ev.arg)
		} else {
			ev.fn()
		}
	}
}

// event is a deferred device action: fn(), or fnArg(arg) for AfterArg.
type event struct {
	cycle uint64
	seq   uint64
	fn    func()
	fnArg func(uint64)
	arg   uint64
}

// eventQueue is a binary min-heap of events ordered by (cycle, seq). It
// holds the events by value, so scheduling one allocates nothing beyond
// the heap's occasional growth.
type eventQueue struct {
	items []event
	seq   uint64
}

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	return a.cycle < b.cycle || a.cycle == b.cycle && a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	q.seq++
	ev.seq = q.seq
	q.items = append(q.items, ev)
	for i := len(q.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	it := q.items
	top, n := it[0], len(it)-1
	it[0] = it[n]
	it[n] = event{} // drop the fired callback
	q.items = it[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q.less(j+1, j) {
			j++
		}
		if !q.less(j, i) {
			break
		}
		it[i], it[j] = it[j], it[i]
		i = j
	}
	return top
}
