package netsim_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// countingHost receives frames and keeps only their count and last
// payload length.
type countingHost struct{ frames, last int }

func (h *countingHost) Receive(_ *netsim.World, _ netproto.Header, payload []byte) {
	h.frames++
	h.last = len(payload)
}

// TestSendToReceiveAllocatesNothing pins an uplink frame, from the
// adaptor's transmit DMA through World.Send to the host's Receive, at
// zero host allocations once the World's frame buffers are warm.
func TestSendToReceiveAllocatesNothing(t *testing.T) {
	core, _, w, _ := rig()
	h := &countingHost{}
	w.AddHost(hostIP, h)
	frame := netproto.EncodeHeader(netproto.Header{Dst: hostIP, Src: deviceIP, Proto: netproto.ProtoUDP},
		netproto.EncodeUDP(netproto.UDP{SrcPort: 1, DstPort: 2, Data: make([]byte, 64)}))
	send := func() {
		deviceSend(t, core, frame)
		core.Tick(w.Latency)
	}
	for i := 0; i < 10; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if h.frames != 111 || h.last != len(frame)-netproto.HeaderBytes {
		t.Fatalf("host received %d frames, the last of %d bytes; want 111 of %d",
			h.frames, h.last, len(frame)-netproto.HeaderBytes)
	}
	if allocs != 0 {
		t.Fatalf("World.Send through Receive allocates %.1f objects, want 0", allocs)
	}
}

// TestBroadcastRepliesInAddressOrder: a broadcast reaches the hosts in
// ascending address order, whatever order they were added in, so two
// hosts that both answer it reply in that order on every run.
func TestBroadcastRepliesInAddressOrder(t *testing.T) {
	const port = 4242
	low, high := netproto.IPv4(10, 0, 0, 20), netproto.IPv4(10, 0, 0, 30)
	for run := 0; run < 20; run++ {
		core, _, w, _ := rig()
		for _, ip := range []uint32{high, low} {
			h := netsim.NewServerHost(ip)
			h.HandleUDP(port, func(*netsim.World, netproto.Header, netproto.UDP) []byte { return []byte("hi") })
			w.AddHost(ip, h)
		}
		deviceSend(t, core, netproto.EncodeHeader(
			netproto.Header{Dst: netproto.Broadcast, Src: deviceIP, Proto: netproto.ProtoUDP},
			netproto.EncodeUDP(netproto.UDP{SrcPort: port, DstPort: port})))
		core.Tick(2*w.Latency + 1)
		var from []uint32
		for f := deviceRecv(t, core); f != nil; f = deviceRecv(t, core) {
			h, _, err := netproto.DecodeHeader(f)
			if err != nil {
				t.Fatal(err)
			}
			from = append(from, h.Src)
		}
		if len(from) != 2 || from[0] != low || from[1] != high {
			t.Fatalf("run %d: replies came from %x, want %x then %x", run, from, low, high)
		}
	}
}
