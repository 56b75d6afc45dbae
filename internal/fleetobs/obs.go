// Package fleetobs is the fleet observability pipeline: deterministic
// end-to-end message tracing plus a per-simulated-second health series
// with declarative SLO rules.
//
// Tracing. Every MQTT publish a device makes can be assigned a trace ID
// at the netstack (seeded-deterministic sampling, per device), carried
// in-band as an optional trailer on the MQTT wire encoding
// (netproto.MQTTPacket.TraceID), and observed at every hop: the device
// publish itself, broker shard ingress, cross-shard forwarding,
// subscriber delivery, and the subscriber application's drain. Each hop
// is a Span stamped in exact simulated cycles.
//
// Determinism. Spans are only ever recorded on a device's own goroutine:
// device-side spans by that device's app thread, and broker-side spans by
// the publisher's goroutine (broker dispatch runs synchronously on
// whichever device's frame triggered it, and cloud-initiated deliveries
// fire from the target device's own event queue). Every Tracer is
// therefore single-writer, sampling derives from the run seed, and the
// merged, sorted span list — and everything computed from it — is a pure
// function of the fleet configuration, byte-identical between lockstep
// and parallel runs.
//
// Cost. A nil *Tracer is a valid disabled tracer: every method is
// nil-safe and performs no work, and a packet with TraceID zero encodes
// to exactly the pre-tracing bytes, so disabled tracing adds zero
// simulated cycles (bench_fleetobs_test.go proves it). When enabled, the
// only simulated cost is the modeled wire cost of the 8-byte trace
// trailer on sampled publishes.
package fleetobs

import (
	"fmt"
	"sort"

	"github.com/cheriot-go/cheriot/internal/prng"
)

// SpanKind classifies one hop of a traced message.
type SpanKind uint8

// Span kinds, in hop order: a trace's spans sort in this order, which is
// also the order the Chrome exporter chains flow events.
const (
	SpanPublish SpanKind = iota // device netstack accepted the publish
	SpanIngress                 // broker shard decoded the publish
	SpanForward                 // cross-shard forward
	SpanDeliver                 // pushed into a subscriber session / device
	SpanRecv                    // subscriber application drained it
	spanKindCount
)

// String renders the kind for tables and the Chrome exporter.
func (k SpanKind) String() string {
	switch k {
	case SpanPublish:
		return "publish"
	case SpanIngress:
		return "ingress"
	case SpanForward:
		return "forward"
	case SpanDeliver:
		return "deliver"
	case SpanRecv:
		return "recv"
	default:
		return "?"
	}
}

// Span is one hop of one traced message, stamped in simulated cycles of
// the clock that executed the hop (the publisher's clock for broker-side
// hops, the target device's clock for cloud deliveries and drains).
type Span struct {
	Trace uint64   `json:"trace"`
	Kind  SpanKind `json:"kind"`
	// Device is the device whose clock stamped the span: the publisher
	// for publish/ingress/forward hops, the subscriber for deliver/recv
	// hops (-1 when the target is not a fleet device).
	Device int `json:"device"`
	// Shard is the broker shard of broker-side hops, -1 for device-side
	// hops. For SpanForward it is the shard forwarded *to*; Peer is the
	// shard forwarded *from*.
	Shard int    `json:"shard"`
	Peer  int    `json:"peer,omitempty"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	OK    bool   `json:"ok"`
}

// Trace ID layout: device-originated traces carry the device index in
// the high bits; cloud-originated traces (scheduled fan-outs and
// commands) set the top bit. Zero always means "untraced".
const cloudTraceBit = uint64(1) << 63

// DeviceTrace builds the trace ID for device's (seq+1)-th sampled publish.
func DeviceTrace(device int, seq uint64) uint64 {
	return uint64(device+1)<<40 | (seq+1)&(1<<40-1)
}

// CloudTrace builds the trace ID for the cloud schedule's seq-th traced
// event.
func CloudTrace(seq uint64) uint64 { return cloudTraceBit | (seq + 1) }

// IsCloudTrace reports whether the trace originated from the cloud
// schedule rather than a device publish.
func IsCloudTrace(trace uint64) bool { return trace&cloudTraceBit != 0 }

// TraceDevice returns the originating device index of a device trace,
// -1 for cloud traces.
func TraceDevice(trace uint64) int {
	if trace == 0 || IsCloudTrace(trace) {
		return -1
	}
	return int(trace>>40) - 1
}

// sampleDenom is the resolution of the sampling draw (same 2^53 lattice
// the link fault injector uses).
const sampleDenom = 1 << 53

// TracerConfig parameterizes one device's tracer.
type TracerConfig struct {
	// Device is the owning device's fleet index.
	Device int
	// Hz is the device clock frequency (for per-second bucketing).
	Hz uint64
	// SampleRate is the probability a publish is traced, in [0,1].
	SampleRate float64
	// Seed drives the sampling draw; derive it from the run seed and the
	// device index so sampling is identical in every run mode.
	Seed uint64
	// MaxSpans bounds the span buffer; once full, further spans are
	// counted as dropped rather than recorded (default 4096).
	MaxSpans int
	// DeviceOf maps a device IP to its fleet index (-1 unknown); used to
	// attribute broker-side delivery spans to their target device.
	DeviceOf func(ip uint32) int
}

// Tracer records one device's spans. It is single-writer by
// construction (see the package comment); a nil Tracer is a disabled
// tracer whose every method is a no-op.
type Tracer struct {
	cfg       TracerConfig
	threshold uint64
	rng       prng.XorShift
	seq       uint64
	spans     []Span
	dropped   uint64
	// linkDrops[t] counts link-level frame drops during simulated second
	// t on this device's World (both directions).
	linkDrops []uint32
	// pumpMax is the deepest inbox observed at pump time. It depends on
	// host scheduling, so it is surfaced through Result, never Summary.
	pumpMax int
}

// NewTracer builds a tracer per cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 4096
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	t := &Tracer{cfg: cfg, rng: prng.XorShift(cfg.Seed | 1)}
	if cfg.SampleRate > 0 {
		t.threshold = uint64(cfg.SampleRate * sampleDenom)
	}
	return t
}

// SamplePublish draws the sampling decision for one publish, returning
// the assigned trace ID or zero. Nil-safe: a nil tracer never samples.
func (t *Tracer) SamplePublish() uint64 {
	if t == nil || t.threshold == 0 {
		return 0
	}
	if t.rng.Next()%sampleDenom >= t.threshold {
		return 0
	}
	id := DeviceTrace(t.cfg.Device, t.seq)
	t.seq++
	return id
}

// record appends one span, counting instead of growing past the cap.
func (t *Tracer) record(s Span) {
	if len(t.spans) >= t.cfg.MaxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// PublishSpan records the device-side publish hop.
func (t *Tracer) PublishSpan(trace, start, end uint64, ok bool) {
	if t == nil || trace == 0 {
		return
	}
	t.record(Span{Trace: trace, Kind: SpanPublish, Device: t.cfg.Device,
		Shard: -1, Start: start, End: end, OK: ok})
}

// RecvSpan records the subscriber application draining a traced message.
func (t *Tracer) RecvSpan(trace, at uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.record(Span{Trace: trace, Kind: SpanRecv, Device: t.cfg.Device,
		Shard: -1, Start: at, End: at, OK: true})
}

// CloudDeliverSpan records a scheduled cloud event landing on this
// device (fired from the device's own event queue, so the stamp is the
// device's clock).
func (t *Tracer) CloudDeliverSpan(trace uint64, shard int, at uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.record(Span{Trace: trace, Kind: SpanDeliver, Device: t.cfg.Device,
		Shard: shard, Start: at, End: at, OK: true})
}

// MQTTIngress implements netsim's observer hook: a broker shard decoded
// a traced publish. Runs on the publisher's goroutine.
func (t *Tracer) MQTTIngress(trace uint64, shard int, now uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.record(Span{Trace: trace, Kind: SpanIngress, Device: t.cfg.Device,
		Shard: shard, Start: now, End: now, OK: true})
}

// MQTTForward implements netsim's observer hook: a traced publish was
// forwarded across shards through the topic owner's index.
func (t *Tracer) MQTTForward(trace uint64, fromShard, toShard int, now uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.record(Span{Trace: trace, Kind: SpanForward, Device: t.cfg.Device,
		Shard: toShard, Peer: fromShard, Start: now, End: now, OK: true})
}

// MQTTDeliver implements netsim's observer hook: a traced publish was
// pushed into a subscriber session.
func (t *Tracer) MQTTDeliver(trace uint64, shard int, targetIP uint32, now uint64) {
	if t == nil || trace == 0 {
		return
	}
	dev := -1
	if t.cfg.DeviceOf != nil {
		dev = t.cfg.DeviceOf(targetIP)
	}
	t.record(Span{Trace: trace, Kind: SpanDeliver, Device: dev,
		Shard: shard, Start: now, End: now, OK: true})
}

// LinkDropped implements netsim's observer hook: the device's link
// dropped a frame (fault injection or an unroutable destination).
func (t *Tracer) LinkDropped(now uint64) {
	if t == nil || t.cfg.Hz == 0 {
		return
	}
	sec := int(now / t.cfg.Hz)
	for len(t.linkDrops) <= sec {
		t.linkDrops = append(t.linkDrops, 0)
	}
	t.linkDrops[sec]++
}

// InboxPumped implements netsim's observer hook: the device pumped n
// queued frames. Host-scheduling dependent; kept out of the
// deterministic surface.
func (t *Tracer) InboxPumped(n int) {
	if t == nil {
		return
	}
	if n > t.pumpMax {
		t.pumpMax = n
	}
}

// Spans returns the recorded spans (the tracer's own buffer; read only
// after the device stopped).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped returns how many spans were discarded because the buffer was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// LinkDrops returns the per-simulated-second link drop counts (index =
// second).
func (t *Tracer) LinkDrops() []uint32 {
	if t == nil {
		return nil
	}
	return t.linkDrops
}

// MaxInboxDepth returns the deepest inbox pump observed
// (host-scheduling dependent).
func (t *Tracer) MaxInboxDepth() int {
	if t == nil {
		return 0
	}
	return t.pumpMax
}

// SortSpans orders spans deterministically: by trace, then hop order,
// then start cycle, device, and shard. Two runs that record the same
// spans in any order produce the same sorted list.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Shard < b.Shard
	})
}

// String renders a span for logs.
func (s Span) String() string {
	return fmt.Sprintf("%016x %-7s dev=%d shard=%d [%d,%d]",
		s.Trace, s.Kind, s.Device, s.Shard, s.Start, s.End)
}
