package hw

import (
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/fifo"
)

// Standard MMIO window layout of the simulated SoC. Windows live above
// SRAM; the loader hands compartments capabilities to exactly the windows
// their firmware metadata declares, which is what makes device access
// auditable (§4).
const (
	MMIOBase    = 0x8000_0000
	TimerBase   = MMIOBase + 0x0000
	RevokerBase = MMIOBase + 0x1000
	UARTBase    = MMIOBase + 0x2000
	LEDBase     = MMIOBase + 0x3000
	NetBase     = MMIOBase + 0x4000
	WindowSize  = 0x100
)

// Timer is the core-local timer. Writing a delta to TimerCompare schedules
// IRQTimer that many cycles in the future (the scheduler uses it for
// preemption quanta and sleeps).
type Timer struct{ core *Core }

// Timer register offsets.
const (
	TimerCycleLo = 0x0 // RO: low 32 bits of the cycle counter
	TimerCycleHi = 0x4 // RO: high 32 bits of the cycle counter
	TimerCompare = 0x8 // WO: raise IRQTimer after this many cycles
)

// NewTimer maps a timer into the core's MMIO space.
func NewTimer(c *Core) *Timer {
	t := &Timer{core: c}
	c.Mem.MapDevice(TimerBase, WindowSize, t)
	return t
}

// LoadWord implements mem.Device.
func (t *Timer) LoadWord(off uint32) uint32 {
	switch off {
	case TimerCycleLo:
		return uint32(t.core.Clock.Cycles())
	case TimerCycleHi:
		return uint32(t.core.Clock.Cycles() >> 32)
	}
	return 0
}

// StoreWord implements mem.Device.
func (t *Timer) StoreWord(off uint32, v uint32) {
	if off == TimerCompare && v > 0 {
		t.core.After(uint64(v), func() { t.core.RaiseIRQ(IRQTimer) })
	}
}

// RevokerControl exposes the revoker's epoch counter and sweep trigger as
// device registers (the "hardware-exposed counter" of §3.1.3).
type RevokerControl struct{ core *Core }

// Revoker register offsets.
const (
	RevokerEpoch   = 0x0 // RO: epoch counter (odd while sweeping)
	RevokerGo      = 0x4 // WO: request a sweep
	RevokerRunning = 0x8 // RO: 1 while sweeping
)

// NewRevokerControl maps the revoker control window.
func NewRevokerControl(c *Core) *RevokerControl {
	r := &RevokerControl{core: c}
	c.Mem.MapDevice(RevokerBase, WindowSize, r)
	return r
}

// LoadWord implements mem.Device.
func (r *RevokerControl) LoadWord(off uint32) uint32 {
	switch off {
	case RevokerEpoch:
		return uint32(r.core.Revoker.Epoch())
	case RevokerRunning:
		if r.core.Revoker.Running() {
			return 1
		}
	}
	return 0
}

// StoreWord implements mem.Device.
func (r *RevokerControl) StoreWord(off uint32, v uint32) {
	if off == RevokerGo {
		r.core.Revoker.Request()
	}
}

// UART is a write-only debug console capturing firmware output.
type UART struct{ buf []byte }

// UARTData is the transmit register offset.
const UARTData = 0x0

// NewUART maps a UART window.
func NewUART(c *Core) *UART {
	u := &UART{}
	c.Mem.MapDevice(UARTBase, WindowSize, u)
	return u
}

// LoadWord implements mem.Device.
func (u *UART) LoadWord(off uint32) uint32 { return 0 }

// StoreWord implements mem.Device.
func (u *UART) StoreWord(off uint32, v uint32) {
	if off == UARTData {
		u.buf = append(u.buf, byte(v))
	}
}

// Output returns everything written to the console so far.
func (u *UART) Output() string { return string(u.buf) }

// LEDBank is a bank of 32 LEDs; every state change is timestamped so tests
// and the case study can assert on blink patterns.
type LEDBank struct {
	core  *Core
	state uint32
	Trace []LEDEvent
}

// LEDEvent records one LED state change.
type LEDEvent struct {
	Cycle uint64
	State uint32
}

// LEDState is the read/write LED state register offset.
const LEDState = 0x0

// NewLEDBank maps an LED bank window.
func NewLEDBank(c *Core) *LEDBank {
	l := &LEDBank{core: c}
	c.Mem.MapDevice(LEDBase, WindowSize, l)
	return l
}

// LoadWord implements mem.Device.
func (l *LEDBank) LoadWord(off uint32) uint32 {
	if off == LEDState {
		return l.state
	}
	return 0
}

// StoreWord implements mem.Device.
func (l *LEDBank) StoreWord(off uint32, v uint32) {
	if off == LEDState && v != l.state {
		l.state = v
		l.Trace = append(l.Trace, LEDEvent{Cycle: l.core.Clock.Cycles(), State: v})
	}
}

// Link is where a NetAdaptor sends outbound frames; the simulated network
// world (internal/netsim) implements it. The link owns the frame buffers
// on both sides of the adaptor: the adaptor DMAs each outbound frame into
// a TxBuffer of its length and hands it to Send, which takes it over, and
// it gives every buffer it is done with back through Recycle: a transmit
// buffer whose DMA failed, and an inbound frame once it is in SRAM.
type Link interface {
	TxBuffer(n int) []byte
	Send(frame []byte)
	Recycle(frame []byte)
}

// NetAdaptor is a simple DMA network interface with no offload features,
// matching the case-study hardware (§5.3.3). The driver programs TX/RX
// DMA addresses; received frames queue in the device and raise IRQNet.
type NetAdaptor struct {
	core *Core
	link Link
	rx   fifo.Queue[[]byte]
	txA  uint32
}

// NetAdaptor register offsets.
const (
	NetTxAddr   = 0x00 // WO: SRAM address of the frame to send
	NetTxLen    = 0x04 // WO: length; writing triggers the DMA send
	NetRxStatus = 0x08 // RO: number of queued inbound frames
	NetRxLen    = 0x0c // RO: length of the head inbound frame
	NetRxAddr   = 0x10 // WO: DMA the head frame to this SRAM address and pop
	NetIRQAck   = 0x14 // WO: acknowledge IRQNet
)

// NewNetAdaptor maps a network adaptor window.
func NewNetAdaptor(c *Core) *NetAdaptor {
	n := &NetAdaptor{core: c}
	c.Mem.MapDevice(NetBase, WindowSize, n)
	return n
}

// Connect attaches the outbound link.
func (n *NetAdaptor) Connect(l Link) { n.link = l }

// Deliver queues an inbound frame and raises IRQNet. The simulated network
// calls it from core events. The adaptor takes the frame, one of the
// link's buffers, over: it keeps it until the driver DMAs it into SRAM,
// then recycles it through the link.
func (n *NetAdaptor) Deliver(frame []byte) {
	n.rx.Push(frame)
	n.core.RaiseIRQ(IRQNet)
}

// LoadWord implements mem.Device.
func (n *NetAdaptor) LoadWord(off uint32) uint32 {
	switch off {
	case NetRxStatus:
		return uint32(n.rx.Len())
	case NetRxLen:
		if n.rx.Len() > 0 {
			return uint32(len(n.rx.At(0)))
		}
	}
	return 0
}

// StoreWord implements mem.Device.
func (n *NetAdaptor) StoreWord(off uint32, v uint32) {
	switch off {
	case NetTxAddr:
		n.txA = v
	case NetTxLen:
		// A DMA longer than SRAM cannot succeed, so it sends nothing.
		if n.link == nil || v > n.core.Mem.Size() {
			return
		}
		frame := n.link.TxBuffer(int(v))
		if err := n.core.Mem.LoadInto(dmaCap(n.txA, v), frame); err != nil {
			n.link.Recycle(frame)
			return
		}
		n.link.Send(frame)
	case NetRxAddr:
		if n.rx.Len() == 0 {
			return
		}
		frame := n.rx.Pop()
		n.dmaWrite(v, frame)
		n.link.Recycle(frame)
	case NetIRQAck:
		n.core.AckIRQ(IRQNet)
	}
}

func (n *NetAdaptor) dmaWrite(addr uint32, frame []byte) {
	auth := dmaCap(addr, uint32(len(frame)))
	_ = n.core.Mem.StoreBytes(auth, frame)
}

// dmaCap models the adaptor's physical bus mastering: DMA is not mediated
// by CHERI (the paper's threat model trusts hardware), but the *driver*
// compartment can only program addresses it learned through its own
// capabilities, which is what auditing constrains.
func dmaCap(addr, length uint32) cap.Capability {
	return cap.New(addr, addr+length, addr, cap.PermLoad|cap.PermStore)
}
