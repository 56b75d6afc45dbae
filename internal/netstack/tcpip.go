package netstack

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/fifo"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// TCP/IP entry names.
const (
	FnIPRx       = "ip_rx"
	FnNetUp      = "net_up"
	FnSockUDP    = "sock_udp"
	FnSockTCP    = "sock_tcp_connect"
	FnSockSend   = "sock_send"
	FnSockRecv   = "sock_recv"
	FnSockClose  = "sock_close"
	FnSockFutex  = "sock_futex"
	FnTCPIPStats = "tcpip_stats"
)

// Socket states.
const (
	sockUDP = iota
	sockSynSent
	sockEstablished
	sockClosed
)

const maxSockets = 32

type rxItem struct {
	data  []byte
	srcIP uint32
}

type socket struct {
	id         uint32
	owner      string
	proto      uint8 // netproto.ProtoUDP or ProtoTCP
	state      int
	localPort  uint16
	remoteIP   uint32
	remotePort uint16
	slot       int
	rxq        fifo.Queue[rxItem]
	sendSeq    uint32
	recvSeq    uint32
}

type tcpipState struct {
	// deviceIP is zero until configured: statically from the firmware, or
	// dynamically by the DHCP exchange in netUp.
	deviceIP uint32
	dhcpBusy bool
	sockets  map[uint32]*socket
	byPort   map[uint16]*socket
	slots    [maxSockets]uint32 // slot -> socket id, 0 = free
	nextID   uint32
	nextPort uint16

	// Counters for tests and the case study.
	rxFrames, icmpEchoes, rxToSocket, txSegments uint64
	dhcpExchanges                                uint64

	bufs []*ipBufs
	// spare holds the data buffers of socket receive items already
	// copied out, for the next received segment to reuse.
	spare [][]byte
}

// ipBufs is one thread's buffers in the TCP/IP compartment: data to
// send, the segment and the frame it encodes to (kept across the
// allocator call that stages the frame), and a received header and
// payload.
type ipBufs struct{ data, seg, frame, hdr, rx []byte }

// queue appends a received segment's data to the socket's queue, in a
// spare buffer when there is one.
func (st *tcpipState) queue(s *socket, data []byte, src uint32) {
	var buf []byte
	if n := len(st.spare); n > 0 {
		buf, st.spare = st.spare[n-1][:0], st.spare[:n-1]
	}
	s.rxq.Push(rxItem{data: append(buf, data...), srcIP: src})
}

// release keeps the data buffer of a receive item popped off a socket's
// queue, once it is copied out, for reuse.
func (st *tcpipState) release(data []byte) { st.spare = append(st.spare, data) }

func newTCPIPState(deviceIP uint32) func() interface{} {
	return func() interface{} {
		return &tcpipState{
			deviceIP: deviceIP,
			sockets:  make(map[uint32]*socket),
			byPort:   make(map[uint16]*socket),
			nextID:   1,
			nextPort: 40_000,
		}
	}
}

func ipState(ctx api.Context) *tcpipState { return ctx.State().(*tcpipState) }

// addTCPIP registers the TCP/IP compartment. Table 2: 38 KB code (23% of
// which is the CHERIoT wrapper around the ported stack), 1.1 KB data. The
// error handler and micro-rebootability are wired by the Stack builder.
func addTCPIP(img *firmware.Image, deviceIP uint32, handler api.ErrorHandler) {
	img.AddCompartment(&firmware.Compartment{
		Name: TCPIP, CodeSize: 38_000, WrapperCodeSize: 8_740, DataSize: 1100,
		State:        newTCPIPState(deviceIP),
		ErrorHandler: handler,
		AllocCaps:    []firmware.AllocCap{{Name: "default", Quota: 16 * 1024}},
		Imports: append(append([]firmware.Import{
			{Kind: firmware.ImportCall, Target: Firewall, Entry: FnFwTx},
			{Kind: firmware.ImportCall, Target: Firewall, Entry: FnFwBootstrap},
		}, alloc.Imports()...), sched.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnIPRx, MinStack: 1024, Entry: ipRx},
			{Name: FnNetUp, MinStack: 1024, Entry: netUp},
			{Name: FnSockUDP, MinStack: 512, Entry: sockUDPCreate},
			{Name: FnSockTCP, MinStack: 1024, Entry: sockTCPConnect},
			{Name: FnSockSend, MinStack: 1024, Entry: sockSend},
			{Name: FnSockRecv, MinStack: 1024, Entry: sockRecv},
			{Name: FnSockClose, MinStack: 512, Entry: sockClose},
			{Name: FnSockFutex, MinStack: 128, Entry: sockFutex},
			{Name: FnTCPIPStats, MinStack: 128, Entry: tcpipStats},
		},
	})
}

// --- Futex plumbing: one word per socket slot in the compartment globals ---

func slotWord(ctx api.Context, slot int) cap.Capability {
	g := ctx.Globals()
	return g.WithAddress(g.Base() + uint32(slot)*4)
}

func bumpSlot(ctx api.Context, slot int) {
	w := slotWord(ctx, slot)
	ctx.Store32(w, ctx.Load32(w)+1)
	_, _ = ctx.Call(sched.Name, sched.EntryFutexWake, api.C(w), api.W(^uint32(0)))
}

func waitSlot(ctx api.Context, slot int, seen uint32, timeout uint32) api.Errno {
	rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
		api.C(slotWord(ctx, slot)), api.W(seen), api.W(timeout))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}

func (st *tcpipState) takeSlot(s *socket) bool {
	for i := range st.slots {
		if st.slots[i] == 0 {
			st.slots[i] = s.id
			s.slot = i
			return true
		}
	}
	return false
}

// --- Transmit path ---

// txFrame stages a frame in a heap buffer and hands it to the firewall;
// frame may be the caller's thread buffer, since it is copied into the
// heap buffer before any preemption point.
func txFrame(ctx api.Context, frame []byte) api.Errno {
	cl := alloc.Client{}
	buf, errno := cl.Malloc(ctx, uint32(len(frame)))
	if errno != api.OK {
		return errno
	}
	defer cl.Free(ctx, buf)
	ctx.StoreBytes(buf, frame)
	ro, _ := libs.ReadOnly(ctx, buf)
	rets, err := ctx.Call(Firewall, FnFwTx, api.C(ro))
	if err != nil {
		return api.ErrUnwound
	}
	return api.ErrnoOf(rets)
}

func (st *tcpipState) sendSegment(ctx api.Context, s *socket, flags uint8, data []byte) api.Errno {
	b := threadBufs(&st.bufs, ctx)
	var payload []byte
	switch s.proto {
	case netproto.ProtoUDP:
		payload = netproto.AppendUDP(b.seg[:0], netproto.UDP{
			SrcPort: s.localPort, DstPort: s.remotePort, Data: data,
		})
	default:
		payload = netproto.AppendTCP(b.seg[:0], netproto.TCP{
			SrcPort: s.localPort, DstPort: s.remotePort,
			Seq: s.sendSeq, Flags: flags, Data: data,
		})
		s.sendSeq += uint32(len(data))
		if flags&(netproto.TCPSyn|netproto.TCPFin) != 0 {
			s.sendSeq++
		}
	}
	st.txSegments++
	if tel := ctx.Telemetry(); tel != nil {
		tel.Counter(TCPIP, "tx_segments").Inc()
		tel.Histogram(TCPIP, "tx_bytes", telemetry.DefaultSizeBuckets).Observe(uint64(len(payload)))
	}
	ctx.Emit(telemetry.Event{Kind: telemetry.KindNetTx, To: TCPIP, Arg: uint64(len(payload))})
	b.seg = payload
	b.frame = netproto.AppendHeader(b.frame[:0], netproto.Header{
		Dst: s.remoteIP, Src: st.deviceIP, Proto: s.proto,
	}, payload)
	return txFrame(ctx, b.frame)
}

// --- Receive path ---

// ipRx(frameCap) is the firewall's hand-off point. The ICMP branch
// deliberately reproduces the "ping of death" pattern the case study
// exploits (§5.3.3): it trusts the header's length field and loads that
// many bytes through the frame capability. On a malformed frame the load
// runs past the capability bounds and the hardware traps — contained by
// this compartment's boundary and repaired by its micro-reboot handler.
func ipRx(ctx api.Context, args []api.Value) []api.Value {
	if ctx.Caller() != Firewall {
		return api.EV(api.ErrNotPermitted)
	}
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	frame := args[0].Cap
	st := ipState(ctx)
	st.rxFrames++
	if tel := ctx.Telemetry(); tel != nil {
		tel.Counter(TCPIP, "rx_frames").Inc()
		tel.Histogram(TCPIP, "rx_bytes", telemetry.DefaultSizeBuckets).Observe(uint64(frame.Length()))
	}
	ctx.Emit(telemetry.Event{Kind: telemetry.KindNetRx, To: TCPIP, Arg: uint64(frame.Length())})
	if frame.Length() < netproto.HeaderBytes {
		return api.EV(api.ErrInvalid)
	}
	b := threadBufs(&st.bufs, ctx)
	hdr := loadInto(ctx, &b.hdr, frame.WithAddress(frame.Base()), netproto.HeaderBytes)
	dst := netproto.Le32(hdr[0:])
	src := netproto.Le32(hdr[4:])
	proto := hdr[8]
	declaredLen := uint32(hdr[10]) | uint32(hdr[11])<<8
	// Unconfigured (mid-DHCP), the stack accepts broadcast frames; once
	// it has a lease it accepts only its own address.
	if dst != st.deviceIP && !(st.deviceIP == 0 && dst == netproto.Broadcast) {
		return api.EV(api.OK) // not for us
	}
	payloadAddr := frame.Base() + netproto.HeaderBytes

	switch proto {
	case netproto.ProtoICMP:
		// BUG (deliberate, mirroring the ported stack's ping handler):
		// the length comes from the packet, not from the frame bounds.
		data := loadInto(ctx, &b.rx, frame.WithAddress(payloadAddr), declaredLen)
		if len(data) >= 1 && data[0] == netproto.ICMPEchoRequest {
			st.icmpEchoes++
			reply := netproto.EncodeHeader(netproto.Header{
				Dst: src, Src: st.deviceIP, Proto: netproto.ProtoICMP,
			}, netproto.EncodeICMP(netproto.ICMPEchoReply, data[1:]))
			return api.EV(txFrame(ctx, reply))
		}
		return api.EV(api.OK)

	case netproto.ProtoUDP:
		n := declaredLen
		if max := frame.Length() - netproto.HeaderBytes; n > max {
			n = max // careful path: clamp to the real frame
		}
		seg, err := netproto.DecodeUDP(loadInto(ctx, &b.rx, frame.WithAddress(payloadAddr), n))
		if err != nil {
			return api.EV(api.ErrInvalid)
		}
		s := st.byPort[seg.DstPort]
		if s == nil || s.proto != netproto.ProtoUDP {
			return api.EV(api.OK)
		}
		if s.remoteIP != 0 && s.remoteIP != netproto.Broadcast && src != s.remoteIP {
			return api.EV(api.OK) // connected-UDP semantics: wrong peer
		}
		st.queue(s, seg.Data, src)
		st.rxToSocket++
		bumpSlot(ctx, s.slot)
		return api.EV(api.OK)

	case netproto.ProtoTCP:
		n := declaredLen
		if max := frame.Length() - netproto.HeaderBytes; n > max {
			n = max
		}
		seg, err := netproto.DecodeTCP(loadInto(ctx, &b.rx, frame.WithAddress(payloadAddr), n))
		if err != nil {
			return api.EV(api.ErrInvalid)
		}
		s := st.byPort[seg.DstPort]
		if s == nil || s.proto != netproto.ProtoTCP {
			return api.EV(api.OK)
		}
		switch {
		case seg.Flags&netproto.TCPRst != 0:
			s.state = sockClosed
			bumpSlot(ctx, s.slot)
		case s.state == sockSynSent && seg.Flags&(netproto.TCPSyn|netproto.TCPAck) == netproto.TCPSyn|netproto.TCPAck:
			s.state = sockEstablished
			s.recvSeq = seg.Seq + 1
			bumpSlot(ctx, s.slot)
		case seg.Flags&netproto.TCPFin != 0:
			s.state = sockClosed
			bumpSlot(ctx, s.slot)
		case len(seg.Data) > 0 && s.state == sockEstablished:
			s.recvSeq = seg.Seq + uint32(len(seg.Data))
			st.queue(s, seg.Data, src)
			st.rxToSocket++
			bumpSlot(ctx, s.slot)
		}
		return api.EV(api.OK)
	}
	return api.EV(api.ErrInvalid)
}

// netUp(timeout) -> errno brings the interface up: with a static address
// it is a no-op; otherwise it runs the DHCP exchange through the
// firewall's bootstrap window (the Fig. 7 Setup phase, and the first step
// of recovery after a micro-reboot, since the reboot resets the lease).
func netUp(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	timeout := args[0].AsWord()
	st := ipState(ctx)
	if st.deviceIP != 0 {
		return api.EV(api.OK)
	}
	// Serialize concurrent bring-ups: later callers wait for the first.
	if st.dhcpBusy {
		for i := 0; i < 64 && st.dhcpBusy; i++ {
			if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(50_000)); err != nil {
				return api.EV(api.ErrUnwound)
			}
		}
		if st.deviceIP != 0 {
			return api.EV(api.OK)
		}
		return api.EV(api.ErrTimeout)
	}
	st.dhcpBusy = true
	defer func() { st.dhcpBusy = false }()

	if rets, err := ctx.Call(Firewall, FnFwBootstrap, api.W(1)); err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrNotPermitted)
	}
	defer func() { _, _ = ctx.Call(Firewall, FnFwBootstrap, api.W(0)) }()

	s, errno := st.newSocketAt(ctx, netproto.ProtoUDP, netproto.Broadcast,
		netproto.PortDHCPServer, netproto.PortDHCPClient)
	if errno != api.OK {
		return api.EV(errno)
	}
	defer st.destroy(s)

	const xid = 0x0D1C_1234
	recvDHCP := func(wantOp uint8) (netproto.DHCP, api.Errno) {
		for tries := 0; tries < 4; tries++ {
			for s.rxq.Len() == 0 {
				seen := ctx.Load32(slotWord(ctx, s.slot))
				if s.rxq.Len() > 0 {
					break
				}
				if e := waitSlot(ctx, s.slot, seen, timeout); e != api.OK {
					return netproto.DHCP{}, api.ErrTimeout
				}
			}
			item := s.rxq.Pop()
			// The demux already stripped the UDP header; the payload is
			// the DHCP message itself.
			m, err := netproto.DecodeDHCP(item.data)
			if err != nil || m.XID != xid || m.Op != wantOp {
				continue
			}
			return m, api.OK
		}
		return netproto.DHCP{}, api.ErrInvalid
	}

	if e := st.sendSegment(ctx, s, 0,
		netproto.EncodeDHCP(netproto.DHCP{Op: netproto.DHCPDiscover, XID: xid})); e != api.OK {
		return api.EV(e)
	}
	offer, e := recvDHCP(netproto.DHCPOffer)
	if e != api.OK {
		return api.EV(e)
	}
	if e := st.sendSegment(ctx, s, 0, netproto.EncodeDHCP(netproto.DHCP{
		Op: netproto.DHCPRequest, XID: xid, YourIP: offer.YourIP})); e != api.OK {
		return api.EV(e)
	}
	ack, e := recvDHCP(netproto.DHCPAck)
	if e != api.OK {
		return api.EV(e)
	}
	st.deviceIP = ack.YourIP
	st.dhcpExchanges++
	return api.EV(api.OK)
}

// --- Socket API (called by the network API compartment) ---

// lookup enforces socket ownership: only the compartment that created a
// socket may operate on it (interface hardening against confused-deputy
// use of leaked IDs).
func lookup(ctx api.Context, st *tcpipState, id uint32) *socket {
	s := st.sockets[id]
	if s == nil || s.owner != ctx.Caller() {
		return nil
	}
	return s
}

func (st *tcpipState) newSocket(ctx api.Context, proto uint8, remoteIP uint32, remotePort uint16) (*socket, api.Errno) {
	return st.newSocketAt(ctx, proto, remoteIP, remotePort, 0)
}

// newSocketAt creates a socket; localPort 0 picks an ephemeral port.
func (st *tcpipState) newSocketAt(ctx api.Context, proto uint8, remoteIP uint32, remotePort, localPort uint16) (*socket, api.Errno) {
	if localPort == 0 {
		localPort = st.nextPort
		st.nextPort++
	}
	if st.byPort[localPort] != nil {
		return nil, api.ErrWouldBlock // port in use
	}
	s := &socket{
		id: st.nextID, owner: ctx.Caller(), proto: proto,
		remoteIP: remoteIP, remotePort: remotePort,
		localPort: localPort, sendSeq: 1000,
	}
	if !st.takeSlot(s) {
		return nil, api.ErrNoMemory
	}
	st.nextID++
	st.sockets[s.id] = s
	st.byPort[s.localPort] = s
	return s, api.OK
}

func (st *tcpipState) destroy(s *socket) {
	delete(st.sockets, s.id)
	delete(st.byPort, s.localPort)
	st.slots[s.slot] = 0
}

// sockUDPCreate(remoteIP, remotePort) -> (errno, id)
func sockUDPCreate(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	s, errno := st.newSocket(ctx, netproto.ProtoUDP, args[0].AsWord(), uint16(args[1].AsWord()))
	if errno != api.OK {
		return api.EV(errno)
	}
	s.state = sockUDP
	return ctx.Ret(api.W(uint32(api.OK)), api.W(s.id))
}

// sockTCPConnect(remoteIP, remotePort, timeout) -> (errno, id)
func sockTCPConnect(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	timeout := args[2].AsWord()
	s, errno := st.newSocket(ctx, netproto.ProtoTCP, args[0].AsWord(), uint16(args[1].AsWord()))
	if errno != api.OK {
		return api.EV(errno)
	}
	s.state = sockSynSent
	seen := ctx.Load32(slotWord(ctx, s.slot))
	if errno := st.sendSegment(ctx, s, netproto.TCPSyn, nil); errno != api.OK {
		st.destroy(s)
		return api.EV(errno)
	}
	for s.state == sockSynSent {
		e := waitSlot(ctx, s.slot, seen, timeout)
		if e == api.ErrTimeout || e == api.ErrUnwound || e == api.ErrCompartmentBusy {
			st.destroy(s)
			return api.EV(api.ErrTimeout)
		}
		seen = ctx.Load32(slotWord(ctx, s.slot))
	}
	if s.state != sockEstablished {
		st.destroy(s)
		return api.EV(api.ErrConnRefused)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(s.id))
}

// sockSend(id, bufCap) -> errno
func sockSend(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	s := lookup(ctx, st, args[0].AsWord())
	if s == nil {
		return api.EV(api.ErrNotFound)
	}
	if s.proto == netproto.ProtoTCP && s.state != sockEstablished {
		return api.EV(api.ErrConnReset)
	}
	buf := args[1].Cap
	n := buf.Length()
	if !libs.CheckPointer(ctx, buf, cap.PermLoad, n) || n == 0 ||
		n > netproto.MaxFrame-netproto.HeaderBytes-16 {
		return api.EV(api.ErrInvalid)
	}
	b := threadBufs(&st.bufs, ctx)
	data := loadInto(ctx, &b.data, buf.WithAddress(buf.Base()), n)
	return api.EV(st.sendSegment(ctx, s, netproto.TCPPsh|netproto.TCPAck, data))
}

// sockRecv(id, bufCap, timeout) -> (errno, n, srcIP)
func sockRecv(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	s := lookup(ctx, st, args[0].AsWord())
	if s == nil {
		return api.EV(api.ErrNotFound)
	}
	buf := args[1].Cap
	if !libs.CheckPointer(ctx, buf, cap.PermStore, buf.Length()) || buf.Length() == 0 {
		return api.EV(api.ErrInvalid)
	}
	timeout := args[2].AsWord()
	for {
		if s.rxq.Len() > 0 {
			item := s.rxq.Pop()
			n := uint32(len(item.data))
			if n > buf.Length() {
				n = buf.Length()
			}
			ctx.StoreBytes(buf.WithAddress(buf.Base()), item.data[:n])
			st.release(item.data)
			return ctx.Ret(api.W(uint32(api.OK)), api.W(n), api.W(item.srcIP))
		}
		if s.proto == netproto.ProtoTCP && s.state != sockEstablished {
			return api.EV(api.ErrConnReset)
		}
		seen := ctx.Load32(slotWord(ctx, s.slot))
		if s.rxq.Len() > 0 {
			continue // raced with a delivery
		}
		e := waitSlot(ctx, s.slot, seen, timeout)
		if e == api.ErrTimeout {
			return api.EV(api.ErrTimeout)
		}
		if e == api.ErrUnwound || e == api.ErrCompartmentBusy {
			return api.EV(api.ErrConnReset)
		}
	}
}

// sockClose(id) -> errno
func sockClose(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	s := lookup(ctx, st, args[0].AsWord())
	if s == nil {
		return api.EV(api.ErrNotFound)
	}
	if s.proto == netproto.ProtoTCP && s.state == sockEstablished {
		_ = st.sendSegment(ctx, s, netproto.TCPFin, nil)
	}
	st.destroy(s)
	return api.EV(api.OK)
}

// sockFutex(id) -> (errno, roCap) exposes the socket's receive futex so
// callers can multiwait over sockets (poll-style, §3.2.4).
func sockFutex(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	st := ipState(ctx)
	s := lookup(ctx, st, args[0].AsWord())
	if s == nil {
		return api.EV(api.ErrNotFound)
	}
	w, err := slotWord(ctx, s.slot).SetBounds(4)
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	ro, err := w.ReadOnly()
	if err != nil {
		return api.EV(api.ErrInvalid)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.C(ro))
}

// tcpipStats() -> (rxFrames, icmpEchoes, rxToSocket, txSegments)
func tcpipStats(ctx api.Context, args []api.Value) []api.Value {
	st := ipState(ctx)
	return ctx.Ret(
		api.W(uint32(st.rxFrames)), api.W(uint32(st.icmpEchoes)),
		api.W(uint32(st.rxToSocket)), api.W(uint32(st.txSegments)),
	)
}
