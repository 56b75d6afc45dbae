package cloud

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prng"
)

// BroadcastTopic is the shared topic cloud fan-out events publish to;
// fleet devices subscribe to it when fan-out is enabled. It is a shared
// (hash-partitioned) topic, unlike the per-device "fleet/<n>" topics.
const BroadcastTopic = "fleet/bcast"

// CommandTopic returns the per-device command topic, nested under the
// device's own topic so it shares the device's home shard.
func CommandTopic(deviceIndex int) string {
	return fmt.Sprintf("fleet/%d/cmd", deviceIndex)
}

// EventKind classifies a scheduled cloud event.
type EventKind int

const (
	// EventFanout publishes to BroadcastTopic, reaching every subscribed
	// device.
	EventFanout EventKind = iota
	// EventCommand publishes to one device's command topic.
	EventCommand
	// EventFailover kills a shard: every device homed there has its
	// session reset and must reconnect.
	EventFailover
)

// Event is one cloud-initiated event at a simulated-clock cycle.
type Event struct {
	At      uint64
	Kind    EventKind
	Topic   string
	Payload []byte
	// Device is the target index for EventCommand.
	Device int
	// Shard is the failing shard for EventFailover.
	Shard int
	// TraceID tags the event's deliveries for distributed tracing
	// (assigned by BuildSchedule when ScheduleConfig.Trace is on; zero
	// otherwise, which keeps the wire bytes unchanged).
	TraceID uint64
}

// ScheduleConfig parameterizes BuildSchedule.
type ScheduleConfig struct {
	Seed    uint64
	Devices int
	Shards  int
	// Start..Horizon bound event times (cycles); fan-outs fire every Every
	// cycles starting at Start+Every.
	Start   uint64
	Horizon uint64
	Every   uint64
	// PayloadBytes sizes fan-out payloads (minimum 8 for the sequence
	// stamp).
	PayloadBytes int
	// Commands adds one per-device command alongside each fan-out, to a
	// seeded-random device.
	Commands bool
	// FailoverAt, when nonzero, schedules one shard failover at that
	// cycle; the victim shard is seeded-random.
	FailoverAt uint64
	// Trace assigns each fan-out and command event a cloud trace ID
	// (fleetobs.CloudTrace), making its deliveries traceable end to end.
	Trace bool
}

// BuildSchedule expands a seeded configuration into a sorted event list.
// It is a pure function of its config: every fleet mode (lockstep,
// parallel, any worker count) building the same config gets byte-for-byte
// the same schedule, which is what keeps broadcast workloads inside the
// determinism guarantee.
func BuildSchedule(c ScheduleConfig) []Event {
	var out []Event
	r := prng.NewSplitMix(c.Seed, 0xc10ad5eed)
	if c.PayloadBytes < 8 {
		c.PayloadBytes = 8
	}
	if c.Devices < 1 {
		c.Devices = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	seq := uint64(0)
	traceSeq := uint64(0)
	trace := func() uint64 {
		if !c.Trace {
			return 0
		}
		traceSeq++
		return fleetobs.CloudTrace(traceSeq - 1)
	}
	if c.Every > 0 {
		for t := c.Start + c.Every; t < c.Horizon; t += c.Every {
			out = append(out, Event{
				At: t, Kind: EventFanout, Topic: BroadcastTopic,
				Payload: eventPayload(r, seq, c.PayloadBytes),
				TraceID: trace(),
			})
			if c.Commands {
				dev := int(r.Below(uint64(c.Devices)))
				out = append(out, Event{
					At: t + c.Every/3, Kind: EventCommand,
					Topic:   CommandTopic(dev),
					Payload: eventPayload(r, seq|1<<63, c.PayloadBytes),
					Device:  dev,
					TraceID: trace(),
				})
			}
			seq++
		}
	}
	if c.FailoverAt > 0 && c.FailoverAt < c.Horizon {
		out = append(out, Event{
			At: c.FailoverAt, Kind: EventFailover,
			Shard: int(r.Below(uint64(c.Shards))),
		})
	}
	return out
}

// eventPayload builds a deterministic payload: an 8-byte big-endian
// sequence stamp followed by seeded filler.
func eventPayload(r *prng.SplitMix, seq uint64, size int) []byte {
	p := make([]byte, size)
	for i := 0; i < 8; i++ {
		p[i] = byte(seq >> (56 - 8*i))
	}
	for i := 8; i < size; i++ {
		p[i] = byte('a' + r.Below(26))
	}
	return p
}

// InstallOnDevice registers the slice of the schedule relevant to one
// device on that device's own event queue. Fan-outs apply to every
// device, commands only to their target, failovers to every device homed
// on the failing shard. Each hook fires on the device's goroutine at the
// device's own clock, calling back into the plane only through
// per-session leaf locks — so the expansion is exactly as deterministic
// as the device's own traffic. onEvent reports each firing and whether
// the delivery (or kick) landed, for per-device accounting.
func InstallOnDevice(core *hw.Core, p *Plane, deviceIndex int, deviceIP uint32,
	events []Event, onEvent func(ev Event, ok bool)) {
	home := p.HomeShard(deviceIndex)
	for _, ev := range events {
		ev := ev
		switch ev.Kind {
		case EventFanout:
			core.At(ev.At, func() {
				ok := p.DeliverToDevice(deviceIndex, deviceIP, ev.Topic, ev.Payload, ev.TraceID)
				onEvent(ev, ok)
			})
		case EventCommand:
			if ev.Device != deviceIndex {
				continue
			}
			core.At(ev.At, func() {
				ok := p.DeliverToDevice(deviceIndex, deviceIP, ev.Topic, ev.Payload, ev.TraceID)
				onEvent(ev, ok)
			})
		case EventFailover:
			if ev.Shard != home {
				continue
			}
			core.At(ev.At, func() {
				ok := p.KickDevice(deviceIndex, deviceIP)
				onEvent(ev, ok)
			})
		}
	}
}
