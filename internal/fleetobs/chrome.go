package fleetobs

import (
	"fmt"
	"io"

	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Process/thread layout of the exported trace: the cloud is pid 0 with
// one thread per shard; each device is pid 1+index with one thread per
// device-side hop kind.
const (
	cloudPid   = 0
	devPidBase = 1
	tidPublish = 1
	tidDeliver = 2
	tidRecv    = 3
)

// WriteChromeTrace exports spans in Chrome trace-event format. Each span
// becomes a complete event on the publisher's or subscriber's process
// (or the cloud's, for broker-side hops), and each multi-hop trace is
// chained with flow events so chrome://tracing draws arrows from the
// device publish through shard ingress, forwards, and deliveries to the
// subscriber's drain.
func WriteChromeTrace(w io.Writer, spans []Span, hz uint64) error {
	sorted := append([]Span(nil), spans...)
	SortSpans(sorted)
	us := func(cycles uint64) float64 {
		if hz == 0 {
			return float64(cycles)
		}
		return float64(cycles) / float64(hz) * 1e6
	}

	var trace telemetry.ChromeTrace
	place := func(s Span) (pid, tid int) {
		switch s.Kind {
		case SpanIngress, SpanForward:
			return cloudPid, s.Shard + 1
		case SpanDeliver:
			if s.Device >= 0 {
				return devPidBase + s.Device, tidDeliver
			}
			return cloudPid, s.Shard + 1
		case SpanRecv:
			return devPidBase + s.Device, tidRecv
		default:
			return devPidBase + s.Device, tidPublish
		}
	}
	for _, s := range sorted {
		pid, tid := place(s)
		if pid == cloudPid {
			trace.NameProcess(pid, "cloud")
			trace.NameThread(pid, tid, fmt.Sprintf("shard %d", tid-1))
		} else {
			trace.NameProcess(pid, fmt.Sprintf("device %d", pid-devPidBase))
			switch tid {
			case tidDeliver:
				trace.NameThread(pid, tid, "deliver")
			case tidRecv:
				trace.NameThread(pid, tid, "recv")
			default:
				trace.NameThread(pid, tid, "publish")
			}
		}
		dur := us(s.End) - us(s.Start)
		if dur <= 0 {
			dur = 0.01
		}
		args := map[string]any{"trace": fmt.Sprintf("%016x", s.Trace), "ok": s.OK}
		if s.Kind == SpanForward {
			args["from_shard"] = s.Peer
		}
		trace.Events = append(trace.Events, telemetry.ChromeEvent{
			Name: s.Kind.String(), Cat: "fleetobs", Ph: "X",
			Ts: us(s.Start), Dur: dur, Pid: pid, Tid: tid, Args: args,
		})
	}

	// Flow events: chain each trace's hops in sorted (hop) order. The
	// sorted span list groups a trace's spans together already.
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Trace == sorted[i].Trace {
			j++
		}
		hops := sorted[i:j]
		if len(hops) >= 2 {
			id := fmt.Sprintf("%016x", hops[0].Trace)
			for k, s := range hops {
				pid, tid := place(s)
				ev := telemetry.ChromeEvent{Name: "flow", Cat: "fleetobs", Ph: "t",
					Ts: us(s.Start), Pid: pid, Tid: tid, ID: id}
				switch k {
				case 0:
					ev.Ph = "s"
				case len(hops) - 1:
					ev.Ph, ev.BP = "f", "e"
				}
				trace.Events = append(trace.Events, ev)
			}
		}
		i = j
	}
	trace.OtherData = map[string]any{"spans": len(sorted), "hz": hz}
	return trace.Write(w)
}
