package cloud

import (
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// publishTraced sends one PUBLISH carrying an in-band trace ID.
func (c *planeClient) publishTraced(topic string, payload []byte, trace uint64) {
	c.t.Helper()
	c.sendTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
		Flags: netproto.TCPPsh | netproto.TCPAck,
		Data: c.tls.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{
			Type: netproto.MQTTPublish, Topic: topic, Payload: payload, TraceID: trace}))})
}

// drainTraces collects queued inbound PUBLISH packets, keyed by topic,
// recording each packet's trace ID.
func (c *planeClient) drainTraces() map[string][]uint64 {
	c.t.Helper()
	got := make(map[string][]uint64)
	for tries := 0; tries < 10; tries++ {
		c.step()
		for {
			data := c.recvTCP()
			if data == nil {
				break
			}
			plain, err := c.tls.Open(data)
			if err != nil {
				c.t.Fatalf("drain open: %v", err)
			}
			pkt, err := netproto.DecodeMQTT(plain)
			if err != nil {
				c.t.Fatalf("drain decode: %v", err)
			}
			if pkt.Type == netproto.MQTTPublish {
				got[pkt.Topic] = append(got[pkt.Topic], pkt.TraceID)
			}
		}
	}
	return got
}

// TestTracedCrossShardSpans drives a traced publish across shards through
// real frames and checks both halves of the observability contract: the
// trace ID survives the wire (TLS + MQTT trailer) to the remote
// subscriber, and the publisher-side tracer records the ingress, forward,
// and deliver hops with resolved device indices.
func TestTracedCrossShardSpans(t *testing.T) {
	p := testPlane(2, 2)
	topicRemote := sharedTopicOwnedBy(1, 2, 2) // owned by the non-publisher shard

	c0 := newPlaneClient(t, p, testDeviceIP(0))
	c1 := newPlaneClient(t, p, testDeviceIP(1))
	tr := fleetobs.NewTracer(fleetobs.TracerConfig{
		Device: 0, Hz: 33_000_000, SampleRate: 1, Seed: 5,
		DeviceOf: testDeviceIndexOf,
	})
	c0.w.SetObserver(tr)

	c0.connect(p.HomeIP(0))
	c1.connect(p.HomeIP(1))
	c0.subscribe(topicRemote)
	c1.subscribe(topicRemote)

	trace := tr.SamplePublish()
	if trace == 0 {
		t.Fatal("tracer armed at rate 1 did not sample")
	}
	c0.publishTraced(topicRemote, []byte("x"), trace)

	got := c1.drainTraces()
	if len(got[topicRemote]) != 1 {
		t.Fatalf("subscriber received %d copies, want 1", len(got[topicRemote]))
	}
	if got[topicRemote][0] != trace {
		t.Errorf("trace ID lost in transit: got %x, want %x", got[topicRemote][0], trace)
	}

	spans := tr.Spans()
	fleetobs.SortSpans(spans)
	kinds := map[fleetobs.SpanKind]fleetobs.Span{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Errorf("unexpected trace %x in span %v", s.Trace, s)
		}
		kinds[s.Kind] = s
	}
	// Ingress is stamped where the publish entered the cloud: the
	// publisher's home broker (shard 0), regardless of topic ownership.
	in, okIn := kinds[fleetobs.SpanIngress]
	if !okIn || in.Shard != 0 {
		t.Errorf("ingress span missing or on wrong shard: %+v", in)
	}
	// The topic's owner is the remote shard, so the delivery back to
	// device 1 is a same-shard delivery from the owner's index; the delivery to the
	// publisher is suppressed (exactly-once). With both subscribers homed
	// apart, the c1 delivery records home shard 1 and device 1.
	del, okDel := kinds[fleetobs.SpanDeliver]
	if !okDel || del.Device != 1 || del.Shard != 1 {
		t.Errorf("deliver span wrong: %+v", del)
	}

	// Now a topic owned by the publisher's shard: the remote subscriber
	// is reached by a cross-shard forward, which must record a forward
	// span from shard 0 to shard 1.
	topicLocal := sharedTopicOwnedBy(0, 2, 2)
	c0.subscribe(topicLocal)
	c1.subscribe(topicLocal)
	trace2 := tr.SamplePublish()
	c0.publishTraced(topicLocal, []byte("y"), trace2)
	if got := c1.drainTraces(); len(got[topicLocal]) != 1 || got[topicLocal][0] != trace2 {
		t.Fatalf("forwarded publish: %v", got[topicLocal])
	}
	var fwd *fleetobs.Span
	for _, s := range tr.Spans() {
		if s.Trace == trace2 && s.Kind == fleetobs.SpanForward {
			s := s
			fwd = &s
		}
	}
	if fwd == nil || fwd.Peer != 0 || fwd.Shard != 1 {
		t.Fatalf("forward span missing or mislabeled: %+v", fwd)
	}
}

// TestConcurrentForwardingCountersRace hammers the owner shard's index
// from concurrently publishing devices (run under -race in check.sh):
// every subscriber still receives every foreign publish exactly once,
// and the owning shard's forwarded counter lands on the exact total.
func TestConcurrentForwardingCountersRace(t *testing.T) {
	const devices, publishes = 4, 25
	p := testPlane(2, devices)
	topic := sharedTopicOwnedBy(0, devices, 2)

	clients := make([]*planeClient, devices)
	for i := range clients {
		clients[i] = newPlaneClient(t, p, testDeviceIP(i))
		clients[i].connect(p.HomeIP(i))
		clients[i].subscribe(topic)
	}
	if p.HomeShard(0) != 0 || p.HomeShard(devices-1) != 1 {
		t.Fatal("expected the device range split across both shards")
	}

	// Devices 0 (home shard 0, the topic owner) and 2 (home shard 1)
	// publish concurrently; broker dispatch runs on each publisher's own
	// goroutine, exactly like the fleet.
	var wg sync.WaitGroup
	for _, pub := range []*planeClient{clients[0], clients[2]} {
		wg.Add(1)
		go func(c *planeClient) {
			defer wg.Done()
			for k := 0; k < publishes; k++ {
				c.publish(topic, []byte{byte(k)})
			}
		}(pub)
	}
	wg.Wait()

	// Exactly-once: every client sees every publish it did not originate.
	for i, c := range clients {
		want := 2 * publishes
		if i == 0 || i == 2 {
			want = publishes
		}
		if got := c.drain(); got[topic] != want {
			t.Errorf("client %d received %d copies, want %d", i, got[topic], want)
		}
	}

	// Cross-shard forwards: the owner-shard publisher forwards to the two
	// shard-1 subscribers; the foreign publisher's deliveries to the two
	// shard-0 subscribers count as forwards through the owner's index.
	stats := p.ShardStats()
	total := stats[0].Forwarded + stats[1].Forwarded
	if total != 4*publishes {
		t.Errorf("forwarded total = %d, want %d", total, 4*publishes)
	}
}

// TestScheduleTraceIDs: the cloud schedule only assigns trace IDs when
// asked, and then gives every fan-out and command a distinct cloud trace.
func TestScheduleTraceIDs(t *testing.T) {
	cfg := ScheduleConfig{
		Seed: 3, Devices: 8, Shards: 2,
		Horizon: 1_000_000, Every: 100_000, PayloadBytes: 16, Commands: true,
	}
	for _, ev := range BuildSchedule(cfg) {
		if ev.TraceID != 0 {
			t.Fatalf("untraced schedule carries trace ID %x", ev.TraceID)
		}
	}
	cfg.Trace = true
	seen := map[uint64]bool{}
	for _, ev := range BuildSchedule(cfg) {
		if ev.Kind == EventFailover {
			continue
		}
		if ev.TraceID == 0 || !fleetobs.IsCloudTrace(ev.TraceID) {
			t.Fatalf("traced %v event has bad trace %x", ev.Kind, ev.TraceID)
		}
		if seen[ev.TraceID] {
			t.Fatalf("duplicate trace ID %x", ev.TraceID)
		}
		seen[ev.TraceID] = true
	}
	if len(seen) == 0 {
		t.Fatal("no traced events")
	}
}
