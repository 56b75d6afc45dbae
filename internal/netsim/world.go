// Package netsim simulates the network beyond the device: a deterministic
// link with propagation latency, and remote hosts (DNS and NTP servers, an
// MQTT-over-TLS broker, an ICMP echo host) implemented outside the RTOS.
//
// The paper's evaluation talks to real services from the FPGA board; this
// package is the synthetic equivalent that exercises the same device-side
// code paths (driver, firewall, TCP/IP, TLS, MQTT) without a physical
// network. Everything is driven by hw.Core events, so runs remain
// bit-for-bit reproducible.
//
// A World is single-device: it wraps one device's adaptor and clock. For
// fleet simulation (internal/fleet) many Worlds share the same remote
// hosts; SetConcurrent switches a World to that regime, where frames
// pushed toward the device from another World's goroutine are queued
// thread-safely and injected by the owning goroutine via PumpInbox.
package netsim

import (
	"sync"
	"sync/atomic"

	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// World is the simulated internet attached to the device's network
// adaptor.
type World struct {
	core    *hw.Core
	adaptor *hw.NetAdaptor

	// DeviceIP is the address of the simulated device.
	DeviceIP uint32
	// Latency is the one-way propagation delay in cycles.
	Latency uint64

	hosts map[uint32]Host

	// Counters for tests and the evaluation harness. They are updated
	// atomically (SendToDevice may run on a foreign goroutine in
	// concurrent mode); read them only when the world is quiescent.
	FramesFromDevice uint64
	FramesToDevice   uint64
	Dropped          uint64

	// concurrent marks the world as sharing hosts with other worlds while
	// being driven from its own goroutine. Inbound frames then go through
	// the inbox instead of straight into the core's (unsynchronized)
	// event queue.
	concurrent bool
	inboxMu    sync.Mutex
	inbox      [][]byte

	// faults, when armed, is the link-level fault injector. It is only
	// ever touched from the owning goroutine (outbound in Send, inbound
	// at delivery/pump time), so its PRNG needs no lock.
	faults *linkFaults

	// partition, when armed, blackholes frames between the device and one
	// peer during a cycle window (the "broker partition" fault). Checked
	// on the owning goroutine against the device's own clock, so the
	// drop decisions are as deterministic as the device's own traffic.
	partition *partitionWindow

	// ntpSkewMillis offsets the wall-clock answer NewSharedNTPServer
	// gives this world's device — the clock-skew fault. Read from host
	// handlers, which run on the owning goroutine.
	ntpSkewMillis int64

	// obs, when set, receives observability callbacks. Like faults it is
	// only invoked from the owning goroutine: drops and pumps happen
	// there by construction, and broker hooks fire during dispatch of
	// this device's own frames (see Broker).
	obs Observer
}

// Observer receives per-device observability callbacks
// (internal/fleetobs implements it). Every hook is invoked on the
// world's owning goroutine, stamped with the owning device's clock, so
// an implementation can be single-writer without locks.
type Observer interface {
	// MQTTIngress fires when a broker shard decodes a traced publish
	// sent by this world's device.
	MQTTIngress(trace uint64, shard int, now uint64)
	// MQTTForward fires when a traced publish from this device is
	// forwarded across shards through the topic owner's index.
	MQTTForward(trace uint64, fromShard, toShard int, now uint64)
	// MQTTDeliver fires when a traced publish from this device is pushed
	// into a subscriber session.
	MQTTDeliver(trace uint64, shard int, targetIP uint32, now uint64)
	// LinkDropped fires when the link drops a frame in either direction.
	LinkDropped(now uint64)
	// InboxPumped fires after PumpInbox moved n > 0 queued frames.
	InboxPumped(n int)
}

// Host is a remote endpoint; it receives frames addressed to its IP and
// may reply through the world.
type Host interface {
	Receive(w *World, h netproto.Header, payload []byte)
}

// NewWorld attaches a world to the adaptor. Latency defaults to ~1 ms at
// the paper's 33 MHz clock.
func NewWorld(core *hw.Core, adaptor *hw.NetAdaptor, deviceIP uint32) *World {
	w := &World{
		core:     core,
		adaptor:  adaptor,
		DeviceIP: deviceIP,
		Latency:  33_000,
		hosts:    make(map[uint32]Host),
	}
	adaptor.Connect(w)
	return w
}

// AddHost registers a remote host. Hosts shared between concurrent worlds
// must synchronize internally (ServerHost does).
func (w *World) AddHost(ip uint32, h Host) { w.hosts[ip] = h }

// SetConcurrent switches the world to fleet operation: SendToDevice
// becomes safe to call from any goroutine (frames land in a queue), and
// the owning goroutine must call PumpInbox regularly to move queued
// frames into the core's event queue. Set it before the simulation runs.
func (w *World) SetConcurrent(on bool) { w.concurrent = on }

// SetLinkFaults arms deterministic link-level fault injection: each frame
// (in either direction) is dropped with probability dropRate, and inbound
// delivery gains up to jitterCycles of extra delay. The same seed always
// produces the same drop/delay sequence.
func (w *World) SetLinkFaults(dropRate float64, jitterCycles uint64, seed uint64) {
	if dropRate <= 0 && jitterCycles == 0 {
		w.faults = nil
		return
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	w.faults = &linkFaults{dropRate: dropRate, jitter: jitterCycles, rng: seed}
}

// SetPartition arms a network partition between the device and peer:
// every frame addressed to (or received from) that address during the
// cycle window [from, until) is dropped, in both directions. One window
// per world; call before the simulation runs.
func (w *World) SetPartition(peer uint32, from, until uint64) {
	if until <= from {
		w.partition = nil
		return
	}
	w.partition = &partitionWindow{peer: peer, from: from, until: until}
}

// partitioned reports whether a frame to/from peer is inside the armed
// partition window at the device's current clock.
func (w *World) partitioned(peer uint32) bool {
	p := w.partition
	if p == nil || peer != p.peer {
		return false
	}
	now := w.Now()
	return now >= p.from && now < p.until
}

// partitionWindow is one armed device↔peer blackhole interval.
type partitionWindow struct {
	peer        uint32
	from, until uint64
}

// SetNTPSkew offsets this device's shared-NTP answers by the given
// number of milliseconds (may be negative) — the clock-skew fault.
func (w *World) SetNTPSkew(millis int64) { w.ntpSkewMillis = millis }

// NTPSkewMillis returns the armed clock skew (0 when unset).
func (w *World) NTPSkewMillis() int64 { return w.ntpSkewMillis }

// SetObserver installs the world's observability hooks. Set it before
// the simulation runs.
func (w *World) SetObserver(o Observer) { w.obs = o }

// Obs returns the installed observer (nil when observability is off).
func (w *World) Obs() Observer { return w.obs }

// Now returns the device-local cycle count. Handlers on hosts shared
// between worlds use it so every device keeps its own notion of time.
func (w *World) Now() uint64 { return w.core.Clock.Cycles() }

// Hz returns the device clock frequency.
func (w *World) Hz() uint64 { return w.core.Clock.Hz() }

// Send implements hw.Link: a frame transmitted by the device propagates
// to its destination host after the link latency. Broadcast frames reach
// every host on the segment. Always called from the owning goroutine (the
// device's adaptor drives it).
func (w *World) Send(frame []byte) {
	atomic.AddUint64(&w.FramesFromDevice, 1)
	if w.faults != nil && w.faults.drop() {
		w.countDrop()
		return
	}
	h, payload, err := netproto.DecodeHeader(frame)
	if err != nil {
		w.countDrop()
		return
	}
	if w.partitioned(h.Dst) {
		w.countDrop()
		return
	}
	if h.Dst == netproto.Broadcast {
		p := append([]byte(nil), payload...)
		for _, host := range w.hosts {
			host := host
			w.core.After(w.Latency, func() { host.Receive(w, h, p) })
		}
		return
	}
	host := w.hosts[h.Dst]
	if host == nil {
		w.countDrop()
		return
	}
	p := append([]byte(nil), payload...)
	w.core.After(w.Latency, func() { host.Receive(w, h, p) })
}

// SendToDevice delivers a frame to the device's adaptor after the link
// latency (raising IRQNet on arrival). In concurrent mode it may be
// called from any goroutine; the frame is queued and scheduled by the
// next PumpInbox.
func (w *World) SendToDevice(frame []byte) {
	f := append([]byte(nil), frame...)
	if w.concurrent {
		w.inboxMu.Lock()
		w.inbox = append(w.inbox, f)
		w.inboxMu.Unlock()
		return
	}
	w.deliver(f)
}

// PumpInbox moves frames queued by foreign goroutines into the core's
// event queue, applying link latency and fault injection. Only the
// owning goroutine may call it (fleet run loops call it between kernel
// dispatches). It returns the number of frames scheduled or dropped.
func (w *World) PumpInbox() int {
	w.inboxMu.Lock()
	frames := w.inbox
	w.inbox = nil
	w.inboxMu.Unlock()
	for _, f := range frames {
		w.deliver(f)
	}
	if w.obs != nil && len(frames) > 0 {
		w.obs.InboxPumped(len(frames))
	}
	return len(frames)
}

// countDrop bumps the drop counter and notifies the observer. Always on
// the owning goroutine (Send and deliver both are).
func (w *World) countDrop() {
	atomic.AddUint64(&w.Dropped, 1)
	if w.obs != nil {
		w.obs.LinkDropped(w.Now())
	}
}

// deliver schedules one inbound frame on the owning goroutine.
func (w *World) deliver(frame []byte) {
	atomic.AddUint64(&w.FramesToDevice, 1)
	if w.partition != nil {
		// Inbound partition check; undecodable frames (e.g. the
		// deliberately malformed ping of death) bypass it and keep their
		// pre-partition behavior.
		if h, _, err := netproto.DecodeHeader(frame); err == nil && w.partitioned(h.Src) {
			w.countDrop()
			return
		}
	}
	delay := w.Latency
	if w.faults != nil {
		if w.faults.drop() {
			w.countDrop()
			return
		}
		delay += w.faults.delay()
	}
	w.core.After(delay, func() { w.adaptor.Deliver(frame) })
}

// Reply is the convenience used by hosts: src/dst swapped relative to the
// frame being answered.
func (w *World) Reply(to netproto.Header, fromIP uint32, proto uint8, payload []byte) {
	w.SendToDevice(netproto.EncodeHeader(netproto.Header{
		Dst: to.Src, Src: fromIP, Proto: proto,
	}, payload))
}

// InjectRaw delivers arbitrary bytes to the device — the fault-injection
// hook behind the §5.3.3 "ping of death".
func (w *World) InjectRaw(frame []byte) { w.SendToDevice(frame) }

// PingOfDeath builds the malformed ICMP frame used in the case study: the
// header advertises far more payload than the frame carries, so a parser
// that trusts the length field reads out of bounds.
func (w *World) PingOfDeath(srcIP uint32) []byte {
	frame := netproto.EncodeHeader(netproto.Header{
		Dst: w.DeviceIP, Src: srcIP, Proto: netproto.ProtoICMP,
	}, netproto.EncodeICMP(netproto.ICMPEchoRequest, []byte{0xde, 0xad}))
	// Inflate the length field past the frame's real extent.
	frame[10] = 0xff
	frame[11] = 0x03
	return frame
}

// linkFaults is a deterministic xorshift64-based drop/delay injector.
type linkFaults struct {
	dropRate float64
	jitter   uint64
	rng      uint64
}

func (f *linkFaults) next() uint64 {
	x := f.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	f.rng = x
	return x
}

func (f *linkFaults) drop() bool {
	if f.dropRate <= 0 {
		return false
	}
	return float64(f.next()%(1<<53))/float64(1<<53) < f.dropRate
}

func (f *linkFaults) delay() uint64 {
	if f.jitter == 0 {
		return 0
	}
	return f.next() % f.jitter
}
