package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/cheriot-go/cheriot/internal/hw"
)

// WriteText renders the Summary as the report cheriot-fleet prints and
// cheriot-inspect fleet re-renders from a recorded run's JSON. Every line
// is a function of the Summary alone, so a recorded run reads exactly
// like the live one. healthAll prints every second of the health series;
// otherwise a long series keeps only its first and last few seconds,
// where bring-up and shutdown anomalies live.
func (s *Summary) WriteText(w io.Writer, healthAll bool) error {
	var b strings.Builder
	mode := "parallel"
	if s.Lockstep {
		mode = "lockstep"
	}
	fmt.Fprintf(&b, "fleet: %d devices, %d workers (%s), %d cloud shards, %.1fs simulated, seed %d\n",
		s.Devices, s.Shards, mode, s.CloudShards, s.SimSeconds, s.Seed)
	fmt.Fprintf(&b, "devices ok: %d (%d errors, %d setup failures)\n",
		s.DevicesOK, s.DeviceErrors, s.SetupFailures)
	fmt.Fprintf(&b, "connects: %d (%d failures, %d reconnects)\n",
		s.Connects, s.ConnectFailures, s.Reconnects)
	fmt.Fprintf(&b, "publishes: %d (%d errors) — %.1f/sim-second fleet-wide\n",
		s.Publishes, s.PublishErrors, s.PublishesPerSimSecond)
	fmt.Fprintf(&b, "connect latency: p50 %.1f ms, p99 %.1f ms\n", s.ConnectP50Ms, s.ConnectP99Ms)
	fmt.Fprintf(&b, "publish latency: p50 %.2f ms, p99 %.2f ms\n", s.PublishP50Ms, s.PublishP99Ms)
	fmt.Fprintf(&b, "link: %d frames up, %d down, %d dropped\n",
		s.FramesFromDevices, s.FramesToDevices, s.FramesDropped)
	fmt.Fprintf(&b, "broker: %d connects, %d subscribes, %d publishes, %d live sessions, %d superseded, %d reaped\n",
		s.BrokerConnects, s.BrokerSubscribes, s.BrokerPublishes, s.BrokerLiveSessions,
		s.BrokerSuperseded, s.BrokerReaped)
	if len(s.BrokerShards) > 1 {
		for _, sh := range s.BrokerShards {
			fmt.Fprintf(&b, "  shard %d: %d connects, %d publishes, %d live, %d forwarded\n",
				sh.Shard, sh.Connects, sh.Publishes, sh.LiveSessions, sh.Forwarded)
		}
	}
	if s.FanoutDelivered+s.FanoutMissed+s.CommandsDelivered+s.FailoverKicks > 0 {
		fmt.Fprintf(&b, "cloud events: %d fan-outs delivered (%d missed), %d commands, %d failover kicks, %d notifications drained\n",
			s.FanoutDelivered, s.FanoutMissed, s.CommandsDelivered, s.FailoverKicks,
			s.NotificationsReceived)
	}
	if p := s.Partition; p != nil {
		fmt.Fprintf(&b, "partition: shard %d cut off from %d devices, %.0fs..%.0fs\n",
			p.Shard, p.Devices, p.FromSecond, p.UntilSecond)
	}
	if s.SkewedDevices > 0 {
		fmt.Fprintf(&b, "clock skew: %d devices running with skewed wall clocks\n", s.SkewedDevices)
	}
	if s.QuotaStormDenied > 0 || s.QuotaStormAllocs > 0 {
		fmt.Fprintf(&b, "quota storm: %d allocations before refusal (%d refusals), %d publishes under exhaustion\n",
			s.QuotaStormAllocs, s.QuotaStormDenied, s.QuotaStormPublishes)
	}
	for _, ps := range s.ProfileStats {
		fmt.Fprintf(&b, "profile %s (%s): %d devices, %d connects, %d publishes\n",
			ps.Name, ps.Firmware, ps.Devices, ps.Connects, ps.Publishes)
	}
	s.writeObs(&b, healthAll)
	if p := s.Profile; p != nil {
		fmt.Fprintf(&b, "profile: %d frames, %d cycles attributed — hottest stacks:\n",
			len(p.Frames), p.TotalCycles)
		if err := p.WriteTop(&b, 10); err != nil {
			return err
		}
	}
	fmt.Fprintf(&b, "capability faults: %d   cycle attribution exact: %v\n",
		s.CapabilityFaults, s.CycleSumExact)
	if s.CrashReports > 0 || s.Reboots > 0 {
		fmt.Fprintf(&b, "crash reports: %d on %d devices, %d micro-reboots\n",
			s.CrashReports, s.CrashDevices, s.Reboots)
	}
	s.writeRollout(&b)
	// The availability curve renders for every run long enough to have
	// one: failover, churn, and partition campaigns need it as much as
	// the PoD storms that introduced it.
	if len(s.AvailabilityPerSecond) > 0 {
		b.WriteString("availability (devices publishing per simulated second):\n")
		for sec, n := range s.AvailabilityPerSecond {
			fmt.Fprintf(&b, "  %3ds %4d %s\n", sec, n, strings.Repeat("#", n*40/(s.Devices+1)))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeObs renders the observability report: traced publish→deliver
// latency fleet-wide, per shard and per profile, the health series, and
// the SLO verdict.
func (s *Summary) writeObs(b *strings.Builder, healthAll bool) {
	o := s.Obs
	if o == nil {
		return
	}
	fmt.Fprintf(b, "obs: %d traced publishes (%d delivered, %d lost), %d spans (%d dropped), %d link drops, sample rate %g\n",
		o.TracedPublishes, o.Delivered, o.Lost, o.SpanCount, o.SpansDropped, o.LinkDrops, o.SampleRate)
	fmt.Fprintf(b, "obs publish→deliver: p50 %.3f ms, p99 %.3f ms\n", o.E2EP50Ms, o.E2EP99Ms)
	for _, sh := range o.PerShard {
		fmt.Fprintf(b, "  shard %d: %d ingress, %d forwards, %d delivers; %d samples, p50 %.3f ms, p99 %.3f ms\n",
			sh.Shard, sh.Ingress, sh.Forwards, sh.Delivers, sh.Samples, sh.E2EP50Ms, sh.E2EP99Ms)
	}
	for _, pr := range o.PerProfile {
		fmt.Fprintf(b, "  profile %s: %d samples, p50 %.3f ms, p99 %.3f ms\n",
			pr.Name, pr.Samples, pr.E2EP50Ms, pr.E2EP99Ms)
	}
	if n := len(o.Health); n > 0 {
		b.WriteString("health (per sim-second):\n")
		b.WriteString("  sec  avail  pub  dlvd  inflight  p50ms    p99ms    drops  crashes\n")
		const edge = 4
		elide := !healthAll && n > 2*edge+1
		for i, h := range o.Health {
			if elide && i == edge {
				fmt.Fprintf(b, "  ... (%d seconds elided)\n", n-2*edge)
			}
			if elide && i >= edge && i < n-edge {
				continue
			}
			fmt.Fprintf(b, "  %3d  %5.2f  %3d  %4d  %8d  %7.3f  %7.3f  %5d  %7d\n",
				h.Second, h.Availability, h.Published, h.Delivered, h.InFlight,
				h.DeliveryP50Ms, h.DeliveryP99Ms, h.Drops, h.Crashes)
		}
	}
	if v := o.SLO; v != nil {
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(b, "slo: %s\n", status)
		v.WriteRules(b, "  ")
	}
}

// writeRollout renders the staged-OTA rollout: its outcome, then a
// timeline of every ring offer, every bake-gate pass with its verdict,
// and the completion or auto-rollback, in simulated-clock order.
func (s *Summary) writeRollout(b *strings.Builder) {
	ro := s.Rollout
	if ro == nil {
		return
	}
	state := ro.Terminal
	if state == "" {
		state = ro.State + " at horizon"
	}
	fmt.Fprintf(b, "rollout %s: %s — %d on new firmware, %d on old (%d updated, %d rolled back)\n",
		ro.NewFirmware, state, ro.OnNew, ro.OnOld, ro.Updated, ro.RolledBack)
	fmt.Fprintf(b, "  offers: %d delivered, %d missed; cohort crashes %d (threshold %d)\n",
		ro.OffersDelivered, ro.OffersMissed, ro.CohortCrashes, ro.CrashThreshold)
	type event struct {
		at   uint64
		text string
	}
	var evs []event
	for _, r := range ro.Rings {
		if r.OfferedAtCycle > 0 {
			evs = append(evs, event{r.OfferedAtCycle,
				fmt.Sprintf("ring %d (%g%%) offered — updated cohort now %d devices", r.Ring, r.Percent, r.Devices)})
		}
		switch {
		case r.AdvancedAtCycle > 0:
			text := fmt.Sprintf("ring %d bake gate passed", r.Ring)
			if r.Verdict != nil && len(r.Verdict.Rules) > 0 {
				rr := r.Verdict.Rules[0]
				text += fmt.Sprintf(" (%s, actual %.3g)", rr.Rule, rr.Actual)
			}
			evs = append(evs, event{r.AdvancedAtCycle, text})
		case r.OfferedAtCycle > 0 && r.Verdict != nil && !r.Verdict.Pass:
			evs = append(evs, event{r.OfferedAtCycle,
				fmt.Sprintf("ring %d bake gate holding at last checkpoint", r.Ring)})
		}
	}
	if ro.RollbackAtCycle > 0 {
		evs = append(evs, event{ro.RollbackAtCycle,
			fmt.Sprintf("AUTO-ROLLBACK: %d cohort crashes exceeded threshold %d — %d devices micro-rebooted to old firmware",
				ro.CohortCrashes, ro.CrashThreshold, ro.RolledBack)})
	}
	if ro.CompleteAtCycle > 0 {
		evs = append(evs, event{ro.CompleteAtCycle, "rollout complete: whole fleet on new firmware"})
	}
	// Stable by cycle: a gate pass and the next ring's offer share a
	// checkpoint, and insertion order (pass before offer) is the causal
	// order.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, e := range evs {
		fmt.Fprintf(b, "  %6.1fs  %s\n", float64(e.at)/float64(hw.DefaultHz), e.text)
	}
}
