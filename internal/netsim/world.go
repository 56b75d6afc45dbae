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
	"slices"
	"sync"
	"sync/atomic"

	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/prng"
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

	// hosts are the remote endpoints by address; hostIPs holds their
	// addresses in ascending order, the order a broadcast reaches them.
	hosts   map[uint32]Host
	hostIPs []uint32

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
	// pumped is the inbox array PumpInbox last drained, swapped back in
	// as the next inbox. Owning goroutine only.
	pumped [][]byte
	// frames holds the World's spare frame buffers, guarded by inboxMu:
	// the adaptor DMAs an outbound frame into one (TxBuffer) and
	// SendToDevice copies an inbound frame into one; each comes back
	// once its host's Receive returns, or once the adaptor has DMAed it
	// into SRAM (Recycle). The spares are not bounded: a World keeps as
	// many buffers as it once had out at a time, which is 5 on
	// fleet-steady, 8-9 on cloud-fanout and 5 in every campaign
	// scenario, while at most 3 are out at once.
	frames [][]byte

	// inflight holds the frames on the link, each named by the core
	// event that ends its trip: to a host, or to the device when host is
	// nil. Unused entries have a nil frame, none below freeSlot; arrive
	// is w.arrival, bound once. Owning goroutine only.
	inflight []inflightFrame
	freeSlot int
	arrive   func(uint64)

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
	// only invoked from the owning goroutine: drops happen there by
	// construction, and broker hooks fire during dispatch of this
	// device's own frames (see Broker).
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
}

// Host is a remote endpoint; it receives frames addressed to its IP and
// may reply through the world.
type Host interface {
	Receive(w *World, h netproto.Header, payload []byte)
}

// inflightFrame is one frame on the link: to host, or to the device's
// adaptor when host is nil.
type inflightFrame struct {
	host  Host
	frame []byte
}

// ownsFrame marks the event arg of the last (or only) host a frame goes
// to, which recycles the frame once its Receive returns.
const ownsFrame = 1 << 63

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
func (w *World) AddHost(ip uint32, h Host) {
	if _, ok := w.hosts[ip]; !ok {
		i, _ := slices.BinarySearch(w.hostIPs, ip)
		w.hostIPs = slices.Insert(w.hostIPs, i, ip)
	}
	w.hosts[ip] = h
}

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
	w.faults = &linkFaults{dropRate: dropRate, jitter: jitterCycles, rng: prng.XorShift(seed)}
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

// TxBuffer implements hw.Link: the adaptor DMAs an outbound frame of n
// bytes into the returned buffer and passes it to Send.
func (w *World) TxBuffer(n int) []byte {
	w.inboxMu.Lock()
	defer w.inboxMu.Unlock()
	return w.buffer(n)[:n]
}

// Recycle implements hw.Link: the adaptor is done with a frame the World
// gave it.
func (w *World) Recycle(frame []byte) {
	w.inboxMu.Lock()
	w.frames = append(w.frames, frame)
	w.inboxMu.Unlock()
}

// buffer returns a spare frame buffer of length 0 and capacity at least
// n, the newest that fits, or a new one of capacity n. The caller holds
// inboxMu.
func (w *World) buffer(n int) []byte {
	for i := len(w.frames) - 1; i >= 0; i-- {
		if b := w.frames[i]; cap(b) >= n {
			last := len(w.frames) - 1
			w.frames[i] = w.frames[last]
			w.frames[last] = nil
			w.frames = w.frames[:last]
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

// Send implements hw.Link: a frame transmitted by the device propagates
// to its destination host after the link latency. Broadcast frames reach
// every host on the segment, in ascending address order. Always called
// from the owning goroutine (the device's adaptor drives it). Send takes
// the frame over, as a buffer from TxBuffer, and passes it on without
// copying; it goes back to the World's spares once the host's Receive
// returns, so a host must copy what it keeps of the payload.
func (w *World) Send(frame []byte) {
	atomic.AddUint64(&w.FramesFromDevice, 1)
	h, _, err := netproto.DecodeHeader(frame)
	switch {
	case w.faults != nil && w.faults.drop(), err != nil, w.partitioned(h.Dst):
		w.countDrop()
		w.Recycle(frame)
	case h.Dst == netproto.Broadcast:
		// One event per host, all sharing the frame. They fire one after
		// another, in push order, so the last one recycles it.
		for i, ip := range w.hostIPs {
			w.schedule(w.Latency, inflightFrame{host: w.hosts[ip], frame: frame}, i == len(w.hostIPs)-1)
		}
		if len(w.hostIPs) == 0 {
			w.Recycle(frame)
		}
	case w.hosts[h.Dst] == nil:
		w.countDrop()
		w.Recycle(frame)
	default:
		w.schedule(w.Latency, inflightFrame{host: w.hosts[h.Dst], frame: frame}, true)
	}
}

// schedule puts a frame on the link for delay cycles: one core event,
// which names the frame by its inflight slot, so it allocates no closure.
// own marks the event that is done with the frame last.
func (w *World) schedule(delay uint64, f inflightFrame, own bool) {
	slot := w.freeSlot
	for slot < len(w.inflight) && w.inflight[slot].frame != nil {
		slot++
	}
	if slot == len(w.inflight) {
		w.inflight = append(w.inflight, f)
	} else {
		w.inflight[slot] = f
	}
	w.freeSlot = slot + 1
	if w.arrive == nil {
		w.arrive = w.arrival
	}
	arg := uint64(slot)
	if own {
		arg |= ownsFrame
	}
	w.core.AfterArg(delay, w.arrive, arg)
}

// arrival ends a frame's trip on the link: the adaptor takes a frame for
// the device over, and a host's frame goes back to the spares once the
// last host's Receive returns.
func (w *World) arrival(arg uint64) {
	slot := int(arg &^ ownsFrame)
	f := w.inflight[slot]
	w.inflight[slot] = inflightFrame{}
	w.freeSlot = min(w.freeSlot, slot)
	if f.host == nil {
		w.adaptor.Deliver(f.frame)
		return
	}
	h, payload, _ := netproto.DecodeHeader(f.frame)
	f.host.Receive(w, h, payload)
	if arg&ownsFrame != 0 {
		w.Recycle(f.frame)
	}
}

// SendToDevice delivers a frame to the device's adaptor after the link
// latency (raising IRQNet on arrival). In concurrent mode it may be
// called from any goroutine; the frame is queued and scheduled by the
// next PumpInbox. The frame is copied once, into a World buffer, so the
// caller keeps its own.
func (w *World) SendToDevice(frame []byte) {
	w.inboxMu.Lock()
	w.enqueue(append(w.buffer(len(frame)), frame...))
}

// sendHeader is SendToDevice of the frame h and payload encode
// to, built straight into a World buffer.
func (w *World) sendHeader(h netproto.Header, payload []byte) {
	w.inboxMu.Lock()
	w.enqueue(netproto.AppendHeader(w.buffer(netproto.HeaderBytes+len(payload)), h, payload))
}

// enqueue queues a World-owned frame for the device, in concurrent mode,
// or delivers it. The caller holds inboxMu, which enqueue releases.
func (w *World) enqueue(f []byte) {
	if w.concurrent {
		w.inbox = append(w.inbox, f)
		w.inboxMu.Unlock()
		return
	}
	w.inboxMu.Unlock()
	w.deliver(f)
}

// PumpInbox moves frames queued by foreign goroutines into the core's
// event queue, applying link latency and fault injection. Only the
// owning goroutine may call it (fleet run loops call it between kernel
// dispatches). It returns the number of frames scheduled or dropped.
func (w *World) PumpInbox() int {
	w.inboxMu.Lock()
	frames := w.inbox
	w.inbox = w.pumped[:0]
	w.inboxMu.Unlock()
	for i, f := range frames {
		w.deliver(f)
		frames[i] = nil
	}
	w.pumped = frames
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

// deliver schedules one inbound frame, a World buffer, on the owning
// goroutine.
func (w *World) deliver(frame []byte) {
	atomic.AddUint64(&w.FramesToDevice, 1)
	if w.partition != nil {
		// Inbound partition check; undecodable frames (e.g. the
		// deliberately malformed ping of death) bypass it and keep their
		// pre-partition behavior.
		if h, _, err := netproto.DecodeHeader(frame); err == nil && w.partitioned(h.Src) {
			w.countDrop()
			w.Recycle(frame)
			return
		}
	}
	delay := w.Latency
	if w.faults != nil {
		if w.faults.drop() {
			w.countDrop()
			w.Recycle(frame)
			return
		}
		delay += w.faults.delay()
	}
	w.schedule(delay, inflightFrame{frame: frame}, true)
}

// Reply is the convenience used by hosts: src/dst swapped relative to the
// frame being answered.
func (w *World) Reply(to netproto.Header, fromIP uint32, proto uint8, payload []byte) {
	w.sendHeader(netproto.Header{Dst: to.Src, Src: fromIP, Proto: proto}, payload)
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
	rng      prng.XorShift
}

func (f *linkFaults) drop() bool {
	if f.dropRate <= 0 {
		return false
	}
	return float64(f.rng.Next()%(1<<53))/float64(1<<53) < f.dropRate
}

func (f *linkFaults) delay() uint64 {
	if f.jitter == 0 {
		return 0
	}
	return f.rng.Next() % f.jitter
}
