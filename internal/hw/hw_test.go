package hw

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/cap"
)

func TestClockConversions(t *testing.T) {
	c := NewClock(DefaultHz)
	c.Advance(33_000_000)
	if got := c.Elapsed(); got != time.Second {
		t.Fatalf("Elapsed = %v, want 1s", got)
	}
	if got := c.CyclesIn(time.Millisecond); got != 33_000 {
		t.Fatalf("CyclesIn(1ms) = %d", got)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	c := NewCore(0x1000, 0)
	var order []int
	c.At(100, func() { order = append(order, 1) })
	c.At(50, func() { order = append(order, 0) })
	c.At(100, func() { order = append(order, 2) }) // FIFO at equal deadlines
	c.Tick(49)
	if len(order) != 0 {
		t.Fatal("event fired early")
	}
	c.Tick(1)
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("order after 50 = %v", order)
	}
	c.Tick(50)
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}

	// 1,000 seeded deadlines, many of them equal, pushed while earlier
	// ones fire: the events must fire at their own cycles, in (cycle,
	// push order) order.
	type key struct{ cycle, seq uint64 }
	rng := rand.New(rand.NewSource(1))
	var pushed, fired []key
	for seq := uint64(1); seq <= 1000; seq++ {
		k := key{cycle: c.Clock.Cycles() + uint64(rng.Intn(64))*50, seq: seq}
		pushed = append(pushed, k)
		c.At(k.cycle, func() {
			if now := c.Clock.Cycles(); now != k.cycle {
				t.Fatalf("event %d fired at cycle %d, want %d", k.seq, now, k.cycle)
			}
			fired = append(fired, k)
		})
		if rng.Intn(3) == 0 {
			c.Tick(uint64(rng.Intn(1500)))
		}
	}
	c.Tick(64 * 50)
	slices.SortFunc(pushed, func(a, b key) int {
		if a.cycle != b.cycle {
			return cmp.Compare(a.cycle, b.cycle)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if !slices.Equal(fired, pushed) {
		t.Fatalf("fired %d events out of (cycle, seq) order", len(fired))
	}
}

func TestSkipTo(t *testing.T) {
	c := NewCore(0x1000, 0)
	fired := false
	c.At(1000, func() { fired = true })
	c.SkipTo(2000)
	if !fired {
		t.Fatal("SkipTo must fire passed events")
	}
	if c.Clock.Cycles() != 2000 {
		t.Fatalf("cycles = %d", c.Clock.Cycles())
	}
	c.SkipTo(1500) // no-op backwards
	if c.Clock.Cycles() != 2000 {
		t.Fatal("SkipTo must not move backwards")
	}
}

func TestIRQLatching(t *testing.T) {
	c := NewCore(0x1000, 0)
	if c.IRQPending() {
		t.Fatal("no IRQ should be pending at reset")
	}
	c.RaiseIRQ(IRQNet)
	c.RaiseIRQ(IRQTimer)
	line, ok := c.PendingIRQ()
	if !ok || line != IRQTimer {
		t.Fatalf("PendingIRQ = %v/%v, want timer first", line, ok)
	}
	c.AckIRQ(IRQTimer)
	line, _ = c.PendingIRQ()
	if line != IRQNet {
		t.Fatalf("after ack, pending = %v", line)
	}
}

func TestRevokerSweepLifecycle(t *testing.T) {
	c := NewCore(0x1000, 0)
	r := c.Revoker
	if r.Running() {
		t.Fatal("revoker must start idle")
	}
	e0 := r.Epoch()
	r.Request()
	if !r.Running() || r.Epoch() != e0+1 {
		t.Fatalf("after request: running=%v epoch=%d", r.Running(), r.Epoch())
	}
	// A full sweep takes Granules * RevokerCyclesPerGranule cycles.
	c.Tick(r.SweepCycles() - 1)
	if !r.Running() {
		t.Fatal("sweep finished early")
	}
	c.Tick(1)
	if r.Running() || r.Epoch() != e0+2 {
		t.Fatalf("after sweep: running=%v epoch=%d", r.Running(), r.Epoch())
	}
	if irq, ok := c.PendingIRQ(); !ok || irq != IRQRevoker {
		t.Fatal("sweep completion must raise IRQRevoker")
	}
}

// TestRevokerHugeStep gives the revoker more than 2^32 granules' worth of
// cycles in one Step, as one long idle skip can: the sweep must finish
// once, having visited every granule, rather than wrap its granule count.
func TestRevokerHugeStep(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, huge uint64 // granules' worth of cycles in each Step
	}{
		{"after 1000 granules", 1000, 1<<32 - 100},
		{"fresh sweep", 0, 1<<32 + 10},
	} {
		c := NewCore(256<<10, 0)
		r := c.Revoker
		var ends []uint64
		r.SetSweepHook(func(start bool, epoch, granules uint64) {
			if !start {
				ends = append(ends, granules)
			}
		})
		r.Request()
		e := r.Epoch()
		r.Step(tc.first * RevokerCyclesPerGranule)
		r.Step(tc.huge * RevokerCyclesPerGranule)
		if r.Running() || r.Epoch() != e+1 {
			t.Fatalf("%s: running=%v epoch=%d, want a finished sweep at epoch %d", tc.name, r.Running(), r.Epoch(), e+1)
		}
		if len(ends) != 1 || ends[0] != uint64(c.Mem.Granules()) {
			t.Fatalf("%s: sweeps ended %v, want one visiting %d granules", tc.name, ends, c.Mem.Granules())
		}
		if irq, ok := c.PendingIRQ(); !ok || irq != IRQRevoker {
			t.Fatalf("%s: sweep completion must raise IRQRevoker", tc.name)
		}
		c.AckIRQ(IRQRevoker)
		if _, ok := c.PendingIRQ(); ok {
			t.Fatalf("%s: an interrupt is still pending after the ack", tc.name)
		}
	}
}

func TestRevokerActuallyInvalidates(t *testing.T) {
	c := NewCore(0x1000, 0)
	root := cap.Root(0, 0x1000)
	obj := cap.New(0x200, 0x280, 0x200, cap.PermData)
	if err := c.Mem.StoreCap(root.WithAddress(0x400), obj); err != nil {
		t.Fatal(err)
	}
	c.Mem.Revoke(0x200, 0x80)
	c.Revoker.Request()
	c.Tick(c.Revoker.SweepCycles())
	if c.Mem.TagAt(0x400) {
		t.Fatal("revoker sweep left a dangling capability tagged")
	}
}

func TestRevokerQueuedSweep(t *testing.T) {
	c := NewCore(0x1000, 0)
	r := c.Revoker
	r.Request()
	e := r.Epoch()
	r.Request() // queued behind the running sweep
	c.Tick(r.SweepCycles())
	if !r.Running() {
		t.Fatal("queued sweep must start when the first finishes")
	}
	if r.Epoch() != e+2 {
		t.Fatalf("epoch = %d, want %d", r.Epoch(), e+2)
	}
}

func TestEpochsElapsedSince(t *testing.T) {
	c := NewCore(0x1000, 0)
	r := c.Revoker

	// Freed while idle (even epoch): safe after the next full sweep.
	eIdle := r.Epoch()
	r.Request()
	c.Tick(r.SweepCycles())
	if !r.EpochsElapsedSince(eIdle) {
		t.Fatal("one full sweep after an idle-epoch free must suffice")
	}

	// Freed mid-sweep (odd epoch): that sweep does not count.
	r.Request()
	c.Tick(1)
	eMid := r.Epoch() // odd
	c.Tick(r.SweepCycles())
	if r.EpochsElapsedSince(eMid) {
		t.Fatal("the in-progress sweep must not count")
	}
	r.Request()
	c.Tick(r.SweepCycles())
	if !r.EpochsElapsedSince(eMid) {
		t.Fatal("a subsequent full sweep must count")
	}
}

func TestRevokerRateAblation(t *testing.T) {
	c := NewCore(0x1000, 0)
	base := c.Revoker.SweepCycles()
	c.Revoker.SetRate(RevokerCyclesPerGranule * 2)
	if got := c.Revoker.SweepCycles(); got != base*2 {
		t.Fatalf("sweep at 2x rate = %d, want %d", got, base*2)
	}
	// A sweep at the slower rate really takes proportionally longer.
	c.Revoker.Request()
	c.Tick(base*2 - 1)
	if !c.Revoker.Running() {
		t.Fatal("sweep finished early at the slower rate")
	}
	c.Tick(1)
	if c.Revoker.Running() {
		t.Fatal("sweep did not finish on time")
	}
	// Rate zero is clamped, not a divide-by-zero.
	c.Revoker.SetRate(0)
	if c.Revoker.SweepCycles() == 0 {
		t.Fatal("zero rate not clamped")
	}
}

func TestEventDuringEventSeesCorrectTime(t *testing.T) {
	// An event that schedules a follow-up must observe its own firing
	// time, not the end of the enclosing tick.
	c := NewCore(0x1000, 0)
	var fired []uint64
	c.At(100, func() {
		fired = append(fired, c.Clock.Cycles())
		c.After(50, func() { fired = append(fired, c.Clock.Cycles()) })
	})
	c.Tick(1000)
	if len(fired) != 2 || fired[0] != 100 || fired[1] != 150 {
		t.Fatalf("fired at %v, want [100 150]", fired)
	}
}

func TestTimerDevice(t *testing.T) {
	c := NewCore(0x1000, 0)
	NewTimer(c)
	reg := cap.New(TimerBase, TimerBase+WindowSize, TimerBase, cap.PermLoad|cap.PermStore)
	c.Tick(123)
	lo, err := c.Mem.Load32(reg.WithAddress(TimerBase + TimerCycleLo))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 123 {
		t.Fatalf("cycle reg = %d", lo)
	}
	if err := c.Mem.Store32(reg.WithAddress(TimerBase+TimerCompare), 100); err != nil {
		t.Fatal(err)
	}
	c.Tick(99)
	if c.IRQPending() {
		t.Fatal("timer fired early")
	}
	c.Tick(1)
	if irq, ok := c.PendingIRQ(); !ok || irq != IRQTimer {
		t.Fatal("timer IRQ not raised")
	}
}

func TestUARTAndLEDs(t *testing.T) {
	c := NewCore(0x1000, 0)
	u := NewUART(c)
	l := NewLEDBank(c)
	uart := cap.New(UARTBase, UARTBase+WindowSize, UARTBase, cap.PermStore)
	for _, ch := range []byte("ok") {
		if err := c.Mem.Store32(uart, uint32(ch)); err != nil {
			t.Fatal(err)
		}
	}
	if u.Output() != "ok" {
		t.Fatalf("UART output = %q", u.Output())
	}
	led := cap.New(LEDBase, LEDBase+WindowSize, LEDBase, cap.PermLoad|cap.PermStore)
	c.Tick(10)
	if err := c.Mem.Store32(led, 0b101); err != nil {
		t.Fatal(err)
	}
	if len(l.Trace) != 1 || l.Trace[0].State != 0b101 || l.Trace[0].Cycle != 10 {
		t.Fatalf("LED trace = %+v", l.Trace)
	}
	got, _ := c.Mem.Load32(led)
	if got != 0b101 {
		t.Fatalf("LED readback = %#b", got)
	}
}

type loopback struct{ n *NetAdaptor }

func (l loopback) TxBuffer(n int) []byte { return make([]byte, n) }
func (l loopback) Send(frame []byte)     { l.n.Deliver(frame) }
func (l loopback) Recycle([]byte)        {}

func TestNetAdaptorLoopback(t *testing.T) {
	c := NewCore(0x1000, 0)
	n := NewNetAdaptor(c)
	n.Connect(loopback{n})
	root := cap.Root(0, 0x1000)
	if err := c.Mem.StoreBytes(root.WithAddress(0x100), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	reg := cap.New(NetBase, NetBase+WindowSize, NetBase, cap.PermLoad|cap.PermStore)
	w := func(off, v uint32) {
		if err := c.Mem.Store32(reg.WithAddress(NetBase+off), v); err != nil {
			t.Fatal(err)
		}
	}
	r := func(off uint32) uint32 {
		v, err := c.Mem.Load32(reg.WithAddress(NetBase + off))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	w(NetTxAddr, 0x100)
	w(NetTxLen, 4)
	if r(NetRxStatus) != 1 {
		t.Fatal("loopback frame not queued")
	}
	if irq, ok := c.PendingIRQ(); !ok || irq != IRQNet {
		t.Fatal("frame arrival must raise IRQNet")
	}
	if r(NetRxLen) != 4 {
		t.Fatalf("RxLen = %d", r(NetRxLen))
	}
	w(NetRxAddr, 0x200)
	got, _ := c.Mem.LoadBytes(root.WithAddress(0x200), 4)
	if string(got) != "ping" {
		t.Fatalf("received %q", got)
	}
	if r(NetRxStatus) != 0 {
		t.Fatal("queue not drained")
	}
	w(NetIRQAck, 1)
	if c.IRQPending() {
		t.Fatal("IRQ not acked")
	}
}
