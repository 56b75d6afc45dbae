// Package sched implements the scheduler component of the TCB (§3.1.4).
//
// The scheduler is invoked by the switcher to make policy decisions
// (priority scheduling with round-robin within a priority), and it is an
// ordinary compartment providing services via compartment calls: futexes
// (compare-and-wait / wake), a multiwaiter, sleeps, and interrupt futexes.
// It is trusted only for availability: it can refuse to run threads, but
// it never sees their register state or stacks.
package sched

import (
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// DefaultQuantum is the preemption quantum: ~3 ms at 33 MHz.
const DefaultQuantum = 100_000

// Name is the scheduler's compartment name.
const Name = "sched"

// Sched is the scheduling policy plus the futex machinery.
type Sched struct {
	k       *switcher.Kernel
	quantum uint64

	ready []readyEntry
	seq   uint64

	// futexes maps a word address to its wait queue. A queue keeps its
	// slice when it empties, for the word's next waiter.
	futexes map[uint32][]*waiter
	// waiters holds each thread's one waiter, indexed by thread ID: a
	// thread blocks on at most one wait at a time, so all its waits reuse
	// it.
	waiters []*waiter

	// irqWordAddr is the address of each interrupt futex word inside the
	// scheduler's globals region.
	irqWordAddr [hw.IRQCount]uint32
	irqWord     cap.Capability // RW capability over the word array
}

type readyEntry struct {
	t   *switcher.Thread
	seq uint64
}

// waiter is a thread's registration for its current wait. A thread
// waiting on multiple futexes (multiwaiter) shares its waiter across
// queues.
type waiter struct {
	t *switcher.Thread
	// addrs are the futex words the waiter is registered on (none for a
	// sleep).
	addrs []uint32
	// wokenBy is the address that woke the waiter, or ^0 for none (timeout
	// or forced wake).
	wokenBy uint32
	// forced marks a ForceWake (micro-reboot rewind).
	forced bool
	// waiting is set from register until complete.
	waiting bool
	// gen numbers the thread's waits. A wait's timer carries its gen, so
	// the timer of a wait that ended early finds a later gen, or the
	// waiter not waiting, and does nothing.
	gen uint64
	// timeout is the timer callback, built once per thread.
	timeout func(gen uint64)
}

// New returns a scheduler with the default quantum. After boot, core
// installs it as the scheduler compartment's state and attaches it.
func New() *Sched {
	return &Sched{
		quantum: DefaultQuantum,
		futexes: make(map[uint32][]*waiter),
	}
}

// SetQuantum overrides the preemption quantum (cycles).
func (s *Sched) SetQuantum(q uint64) { s.quantum = q }

// Attach wires the scheduler to the booted kernel and locates its
// interrupt futex words in its globals region.
func (s *Sched) Attach(k *switcher.Kernel) {
	s.k = k
	k.SetScheduler(s)
	comp := k.Comp(Name)
	if comp != nil {
		g := comp.Globals()
		for i := 0; i < hw.IRQCount; i++ {
			s.irqWordAddr[i] = g.Base() + uint32(i)*4
		}
		s.irqWord = g
	}
}

// Quantum implements switcher.Scheduler.
func (s *Sched) Quantum() uint64 { return s.quantum }

// Ready implements switcher.Scheduler. Making a thread runnable that
// outranks the running one requests a reschedule, so priority preemption
// happens at the waker's next preemption point.
func (s *Sched) Ready(t *switcher.Thread) {
	for _, e := range s.ready {
		if e.t == t {
			return
		}
	}
	s.seq++
	s.ready = append(s.ready, readyEntry{t: t, seq: s.seq})
	if s.k != nil {
		if cur := s.k.Running(); cur != nil && cur != t && t.Priority > cur.Priority {
			s.k.RequestResched()
		}
	}
}

// PickNext implements switcher.Scheduler: highest priority wins; equal
// priorities round-robin in FIFO order.
func (s *Sched) PickNext() *switcher.Thread {
	best := -1
	for i, e := range s.ready {
		if best == -1 ||
			e.t.Priority > s.ready[best].t.Priority ||
			(e.t.Priority == s.ready[best].t.Priority && e.seq < s.ready[best].seq) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	t := s.ready[best].t
	s.ready = append(s.ready[:best], s.ready[best+1:]...)
	return t
}

// OnIRQ implements switcher.Scheduler: a device interrupt increments the
// line's interrupt futex word and wakes its waiters; drivers are ordinary
// threads waiting on that futex (§3.1.4).
func (s *Sched) OnIRQ(line hw.IRQ) {
	if line == hw.IRQTimer {
		// Quantum expiry: the kernel loop already requeued the thread.
		return
	}
	if !s.irqWord.Valid() {
		return
	}
	addr := s.irqWordAddr[line]
	w := s.irqWord.WithAddress(addr)
	v, err := s.k.Core.Mem.Load32(w)
	if err != nil {
		return
	}
	_ = s.k.Core.Mem.Store32(w, v+1)
	s.wake(addr, -1, "")
}

// ForceWake implements switcher.Scheduler (micro-reboot step 2).
func (s *Sched) ForceWake(t *switcher.Thread) {
	if t.ID < len(s.waiters) {
		if w := s.waiters[t.ID]; w != nil && w.waiting {
			w.forced = true
			s.complete(w)
			return
		}
	}
	s.Ready(t)
}

// wake wakes up to n waiters on addr (-1 = all), charging the wake cost
// and emitting one futex-wake event per thread; waker is the waking
// compartment ("" for an interrupt). It returns the number woken.
// complete takes each woken waiter out of the queue, so the loop always
// wakes the head.
func (s *Sched) wake(addr uint32, n int, waker string) int {
	woken := 0
	for n < 0 || woken < n {
		q := s.futexes[addr]
		if len(q) == 0 {
			break
		}
		w := q[0]
		w.wokenBy = addr
		s.complete(w)
		woken++
		s.k.Core.Tick(hw.FutexWakeCycles)
		s.k.Emit(telemetry.Event{Kind: telemetry.KindFutexWake,
			Thread: w.t.Name, From: waker, Arg: uint64(addr)})
	}
	return woken
}

// complete removes the waiter from every queue it is registered on and
// makes the thread runnable.
func (s *Sched) complete(w *waiter) {
	w.waiting = false
	for _, a := range w.addrs {
		q := s.futexes[a]
		for i, x := range q {
			if x == w {
				s.futexes[a] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
	s.Ready(w.t)
}

// waiterFor starts a new wait for t: it returns t's waiter, reset and
// with a new gen, for the caller to fill in addrs and register.
func (s *Sched) waiterFor(t *switcher.Thread) *waiter {
	for len(s.waiters) <= t.ID {
		s.waiters = append(s.waiters, nil)
	}
	w := s.waiters[t.ID]
	if w == nil {
		w = &waiter{t: t}
		w.timeout = func(gen uint64) {
			if w.waiting && w.gen == gen {
				s.complete(w)
			}
		}
		s.waiters[t.ID] = w
	}
	w.gen++
	w.addrs = w.addrs[:0]
	w.wokenBy = noWaker
	w.forced = false
	return w
}

// register enrols a waiter on its addresses.
func (s *Sched) register(w *waiter) {
	w.waiting = true
	for _, a := range w.addrs {
		s.futexes[a] = append(s.futexes[a], w)
	}
}

// arm sets the timer of w's current wait to end it n cycles from now. A
// timer is never cancelled: once its wait has ended it fires in place and
// does nothing.
func (s *Sched) arm(w *waiter, n uint64) { s.k.Core.AfterArg(n, w.timeout, w.gen) }
