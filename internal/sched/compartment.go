package sched

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Entry point names exported by the scheduler compartment. Compartments
// that use them must declare the imports (which is what makes their use of
// scheduling services auditable).
const (
	EntryFutexWait = "futex_wait"
	EntryFutexWake = "futex_wake"
	EntryMultiwait = "multiwait"
	EntrySleep     = "sleep"
	EntryIRQFutex  = "irq_futex"
	EntryTimeIdle  = "time_idle"
)

// Table 2 reports the scheduler at 3.3 KB of code and 472 B of data.
const (
	codeSize = 3300
	dataSize = 472
)

// AddTo registers the scheduler compartment in a firmware image. Call it
// once per image before loading; Attach wires the instance after boot.
func (s *Sched) AddTo(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name:     Name,
		CodeSize: codeSize,
		DataSize: dataSize,
		Exports: []*firmware.Export{
			{Name: EntryFutexWait, MinStack: 160, Posture: firmware.PostureDisabled, Entry: s.futexWait},
			{Name: EntryFutexWake, MinStack: 160, Posture: firmware.PostureDisabled, Entry: s.futexWake},
			{Name: EntryMultiwait, MinStack: 240, Posture: firmware.PostureDisabled, Entry: s.multiwait},
			{Name: EntrySleep, MinStack: 96, Posture: firmware.PostureDisabled, Entry: s.sleep},
			{Name: EntryIRQFutex, MinStack: 96, Posture: firmware.PostureDisabled, Entry: s.irqFutex},
			{Name: EntryTimeIdle, MinStack: 96, Posture: firmware.PostureDisabled, Entry: s.timeIdle},
		},
	})
}

// Imports returns the import-table entries a compartment needs to use the
// scheduler's services; pass them to the compartment's Imports list.
func Imports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryFutexWait},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryFutexWake},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryMultiwait},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntrySleep},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryIRQFutex},
		{Kind: firmware.ImportCall, Target: Name, Entry: EntryTimeIdle},
	}
}

const noWaker = ^uint32(0)

// futexWait(word, expected, timeoutCycles) is compare-and-wait: the thread
// sleeps iff the futex word still holds expected. A zero timeout waits
// forever. Wakers may be spurious; callers re-check the word (§3.2.4).
func (s *Sched) futexWait(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	word := args[0].Cap
	if word.CheckAccess(cap.PermLoad, 4) != nil {
		return api.EV(api.ErrInvalid)
	}
	expected, timeout := args[1].AsWord(), args[2].AsWord()
	ctx.Work(hw.FutexWaitCycles)
	if ctx.Load32(word) != expected {
		return api.EV(api.OK) // the word moved: no sleep, caller re-checks
	}
	t := s.k.ThreadByID(ctx.ThreadID())
	ctx.Telemetry().Counter(Name, "futex_waits").Inc()
	ctx.Emit(telemetry.Event{Kind: telemetry.KindFutexWait,
		Thread: t.Name, From: ctx.Caller(), Arg: uint64(word.Address())})
	w := s.waiterFor(t)
	w.addrs = append(w.addrs, word.Address())
	s.register(w)
	if timeout > 0 {
		s.arm(w, uint64(timeout))
	}
	s.k.Block(t)
	switch {
	case w.forced:
		return api.EV(api.ErrCompartmentBusy)
	case w.wokenBy == noWaker && timeout > 0:
		return api.EV(api.ErrTimeout)
	default:
		return api.EV(api.OK)
	}
}

// futexWake(word, n) wakes up to n waiters; n == ^0 wakes all. It returns
// the number woken.
func (s *Sched) futexWake(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	word := args[0].Cap
	if word.CheckAccess(cap.PermLoad, 4) != nil {
		return api.EV(api.ErrInvalid)
	}
	n := int(int32(args[1].AsWord()))
	if args[1].AsWord() == ^uint32(0) {
		n = -1
	}
	woken := s.wake(word.Address(), n, ctx.Caller())
	return ctx.Ret(api.W(uint32(woken)))
}

// multiwait(timeout, word0, expected0, word1, expected1, ...) blocks until
// any of the futexes is woken (§3.2.4). It returns the index of the event
// that fired, or an error.
func (s *Sched) multiwait(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || (len(args)-1)%2 != 0 {
		return api.EV(api.ErrInvalid)
	}
	timeout := args[0].AsWord()
	// Event i is the pair (word, expected) at evs[2i], evs[2i+1].
	evs := args[1:]
	for i := 0; i < len(evs); i += 2 {
		if !evs[i].IsCap || evs[i].Cap.CheckAccess(cap.PermLoad, 4) != nil {
			return api.EV(api.ErrInvalid)
		}
	}
	ctx.Work(hw.FutexWaitCycles * uint64(len(evs)/2))
	// If any word already moved, report it without sleeping.
	for i := 0; i < len(evs); i += 2 {
		if ctx.Load32(evs[i].Cap) != evs[i+1].AsWord() {
			return ctx.Ret(api.W(uint32(i / 2)))
		}
	}
	t := s.k.ThreadByID(ctx.ThreadID())
	w := s.waiterFor(t)
	for i := 0; i < len(evs); i += 2 {
		w.addrs = append(w.addrs, evs[i].Cap.Address())
	}
	s.register(w)
	if timeout > 0 {
		s.arm(w, uint64(timeout))
	}
	s.k.Block(t)
	switch {
	case w.forced:
		return api.EV(api.ErrCompartmentBusy)
	case w.wokenBy == noWaker:
		return api.EV(api.ErrTimeout)
	default:
		for i := 0; i < len(evs); i += 2 {
			if evs[i].Cap.Address() == w.wokenBy {
				return ctx.Ret(api.W(uint32(i / 2)))
			}
		}
		return api.EV(api.ErrInvalid)
	}
}

// sleep(cycles) blocks the thread for the given number of cycles.
func (s *Sched) sleep(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	n := uint64(args[0].AsWord())
	t := s.k.ThreadByID(ctx.ThreadID())
	ctx.Telemetry().Counter(Name, "sleeps").Inc()
	ctx.Emit(telemetry.Event{Kind: telemetry.KindSleep, Thread: t.Name, From: ctx.Caller(), Arg: n})
	w := s.waiterFor(t)
	s.register(w)
	s.arm(w, n)
	s.k.Block(t)
	if w.forced {
		return api.EV(api.ErrCompartmentBusy)
	}
	return api.EV(api.OK)
}

// irqFutex(line) returns a read-only capability to the line's interrupt
// futex word. Drivers wait on it; each interrupt increments it (§3.1.4).
func (s *Sched) irqFutex(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || int(args[0].AsWord()) >= hw.IRQCount {
		return api.EV(api.ErrInvalid)
	}
	addr := s.irqWordAddr[args[0].AsWord()]
	word, err := s.irqWord.WithAddress(addr).SetBounds(4)
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	ro, err := word.ReadOnly()
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.C(ro))
}

// timeIdle() returns the cycles the system has spent idle as (lo, hi)
// words; the CPU-load instrumentation of §5.3.3 queries it every second.
func (s *Sched) timeIdle(ctx api.Context, args []api.Value) []api.Value {
	idle := s.k.IdleCycles()
	return ctx.Ret(api.W(uint32(idle)), api.W(uint32(idle>>32)))
}
