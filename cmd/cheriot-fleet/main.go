// cheriot-fleet runs a fleet of simulated CHERIoT devices against one
// shared simulated cloud and reports aggregate throughput, latency
// percentiles, and merged per-compartment cycle attribution.
//
// Usage:
//
//	cheriot-fleet -devices 1000 -workers 8 -duration 20s
//	cheriot-fleet -devices 16 -lockstep -seed 42 -json   # deterministic JSON
//	cheriot-fleet -devices 64 -drop 0.01 -churn 16       # fault injection
//	cheriot-fleet -devices 256 -shards 4 -fanout 2s      # sharded cloud + broadcast
//	cheriot-fleet -devices 32 -profiles 'sensor:3:rate=2,bytes=24;jsdev:1:fw=jsvm'
//	cheriot-fleet -devices 8 -shards 2 -partition 13s    # broker partition
//	cheriot-fleet -devices 8 -clock-skew 500ms           # NTP skew fault
//	cheriot-fleet -devices 8 -quota-storm 14s            # quota exhaustion
//	cheriot-fleet -devices 16 -obs -obs-trace trace.json        # message tracing
//	cheriot-fleet -devices 16 -obs -slo 'delivery>=0.99;p99<=5ms'
//	cheriot-fleet -devices 16 -prof -prof-out prof.json  # cycle profiler
//	cheriot-fleet -devices 64 -hostprof                  # host phase split
//	cheriot-fleet -devices 10000 -no-snapshot            # cold-boot every device
//	cheriot-fleet -devices 48 -rollout 14s -rollout-rings 1,10,50,100  # staged OTA
//	cheriot-fleet -devices 48 -rollout 14s -rollout-poison             # ...that must roll back
//
// Durations are simulated time (33 MHz device clocks). The JSON summary on
// stdout is deterministic for a given config+seed; wall-clock timings go
// to stderr. With -slo the process exits 3 when any rule is violated.
//
// The fleet-shaping flags set a fleet.Config through internal/fleetcli,
// the struct registered scenarios declare (see cheriot-campaign), so a
// flag invocation and its ported scenario are provably equivalent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetcli"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// sloVerdict extracts the verdict (nil when no rules were evaluated).
func sloVerdict(o *fleetobs.Report) *fleetobs.Verdict {
	if o == nil {
		return nil
	}
	return o.SLO
}

func main() {
	cfg := fleetcli.Default()
	finish := fleetcli.Register(flag.CommandLine, &cfg)
	metrics := flag.Bool("metrics", false, "print the fleet-merged cycle-attribution table")
	jsonOut := flag.Bool("json", false, "print the deterministic summary as JSON on stdout")
	dumpDir := flag.String("dump-dir", "", "write each crashed device's flight-recorder dump to this directory")
	obsTrace := flag.String("obs-trace", "", "write the merged spans as a Chrome trace to this file")
	obsHealth := flag.String("obs-health", "", "write the per-second health series as JSON to this file")
	profOut := flag.String("prof-out", "", "write the merged cycle profile as JSON to this file (needs -prof; inspect with cheriot-prof)")
	flag.Parse()

	if err := finish(); err != nil {
		log.Fatalf("fleet: %v", err)
	}
	if *dumpDir != "" && cfg.FlightRecorder == 0 {
		log.Fatal("fleet: -dump-dir needs -flightrec to enable the recorders")
	}
	if (*obsTrace != "" || *obsHealth != "") && !cfg.Obs {
		log.Fatal("fleet: -obs-trace/-obs-health need -obs")
	}
	if *profOut != "" && !cfg.Prof {
		log.Fatal("fleet: -prof-out needs -prof")
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	s := res.Summary

	fmt.Fprintf(os.Stderr, "wall clock: boot %.2fs, run %.2fs (%d devices / %d workers / %d cloud shards, %.0fx real time)\n",
		res.BootWall.Seconds(), res.RunWall.Seconds(), s.Devices, s.Shards, s.CloudShards,
		s.SimSeconds*float64(s.Devices)/res.RunWall.Seconds())
	if st := res.Snapshot; st != nil {
		fmt.Fprintf(os.Stderr, "snapshot boot: %d template(s), %d cold boot(s), %d fork(s)\n",
			st.Templates, st.ColdBoots, st.Forks)
	}
	if hp := res.HostProf; hp != nil {
		fmt.Fprintf(os.Stderr, "host phases (%d workers):\n", hp.Workers)
		if err := hp.WriteTable(os.Stderr); err != nil {
			log.Fatalf("fleet: %v", err)
		}
	}

	if *profOut != "" && s.Profile != nil {
		f, err := os.Create(*profOut)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if err := s.Profile.WriteJSON(f); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %d profile frames to %s (inspect with cheriot-prof)\n",
			len(s.Profile.Frames), *profOut)
	}

	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		written := 0
		for _, d := range res.Devices {
			if d.Rec == nil || d.Rec.ReportsTotal() == 0 {
				continue
			}
			dump := d.Sys.FlightDump()
			path := fmt.Sprintf("%s/device-%05d.json", *dumpDir, d.Index)
			f, err := os.Create(path)
			if err != nil {
				log.Fatalf("fleet: %v", err)
			}
			if err := dump.WriteJSON(f); err != nil {
				log.Fatalf("fleet: %v", err)
			}
			f.Close()
			written++
		}
		fmt.Fprintf(os.Stderr, "wrote %d crash dumps to %s (inspect with cheriot-inspect)\n", written, *dumpDir)
	}

	if *obsTrace != "" {
		f, err := os.Create(*obsTrace)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if err := fleetobs.WriteChromeTrace(f, res.Spans, hw.DefaultHz); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
			len(res.Spans), *obsTrace)
	}
	if *obsHealth != "" && s.Obs != nil {
		f, err := os.Create(*obsHealth)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Obs.Health); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %d health points to %s\n", len(s.Obs.Health), *obsHealth)
	}
	// The SLO gate runs regardless of output format; the exit code is the
	// machine-readable verdict.
	defer func() {
		if v := sloVerdict(s.Obs); v != nil && !v.Pass {
			os.Exit(3)
		}
	}()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("fleet: %d devices, %d workers, %d cloud shards, %.1fs simulated, seed %d\n",
		s.Devices, s.Shards, s.CloudShards, s.SimSeconds, s.Seed)
	fmt.Printf("devices ok: %d (%d errors, %d setup failures)\n",
		s.DevicesOK, s.DeviceErrors, s.SetupFailures)
	fmt.Printf("connects: %d (%d failures, %d reconnects)\n",
		s.Connects, s.ConnectFailures, s.Reconnects)
	fmt.Printf("publishes: %d (%d errors) — %.1f/sim-second fleet-wide\n",
		s.Publishes, s.PublishErrors, s.PublishesPerSimSecond)
	fmt.Printf("connect latency: p50 %.1f ms, p99 %.1f ms\n", s.ConnectP50Ms, s.ConnectP99Ms)
	fmt.Printf("publish latency: p50 %.2f ms, p99 %.2f ms\n", s.PublishP50Ms, s.PublishP99Ms)
	fmt.Printf("link: %d frames up, %d down, %d dropped\n",
		s.FramesFromDevices, s.FramesToDevices, s.FramesDropped)
	fmt.Printf("broker: %d connects, %d subscribes, %d publishes, %d live sessions, %d superseded, %d reaped\n",
		s.BrokerConnects, s.BrokerSubscribes, s.BrokerPublishes, s.BrokerLiveSessions,
		s.BrokerSuperseded, s.BrokerReaped)
	if len(s.BrokerShards) > 1 {
		for _, sh := range s.BrokerShards {
			fmt.Printf("  shard %d: %d connects, %d publishes, %d live, %d forwarded\n",
				sh.Shard, sh.Connects, sh.Publishes, sh.LiveSessions, sh.Forwarded)
		}
	}
	if s.FanoutDelivered+s.FanoutMissed+s.CommandsDelivered+s.FailoverKicks > 0 {
		fmt.Printf("cloud events: %d fan-outs delivered (%d missed), %d commands, %d failover kicks, %d notifications drained\n",
			s.FanoutDelivered, s.FanoutMissed, s.CommandsDelivered, s.FailoverKicks,
			s.NotificationsReceived)
	}
	if p := s.Partition; p != nil {
		fmt.Printf("partition: shard %d cut off from %d devices, %.0fs..%.0fs\n",
			p.Shard, p.Devices, p.FromSecond, p.UntilSecond)
	}
	if s.SkewedDevices > 0 {
		fmt.Printf("clock skew: %d devices running with skewed wall clocks\n", s.SkewedDevices)
	}
	if s.QuotaStormDenied > 0 || s.QuotaStormAllocs > 0 {
		fmt.Printf("quota storm: %d allocations before refusal (%d refusals), %d publishes under exhaustion\n",
			s.QuotaStormAllocs, s.QuotaStormDenied, s.QuotaStormPublishes)
	}
	for _, ps := range s.ProfileStats {
		fmt.Printf("profile %s (%s): %d devices, %d connects, %d publishes\n",
			ps.Name, ps.Firmware, ps.Devices, ps.Connects, ps.Publishes)
	}
	if o := s.Obs; o != nil {
		fmt.Printf("obs: %d traced publishes (%d delivered, %d lost), %d spans (%d dropped), sample rate %g\n",
			o.TracedPublishes, o.Delivered, o.Lost, o.SpanCount, o.SpansDropped, o.SampleRate)
		fmt.Printf("obs publish→deliver: p50 %.2f ms, p99 %.2f ms\n", o.E2EP50Ms, o.E2EP99Ms)
		for _, sh := range o.PerShard {
			fmt.Printf("  shard %d: %d ingress, %d forwards, %d delivers, p50 %.2f ms, p99 %.2f ms\n",
				sh.Shard, sh.Ingress, sh.Forwards, sh.Delivers, sh.E2EP50Ms, sh.E2EP99Ms)
		}
		for _, pr := range o.PerProfile {
			fmt.Printf("  profile %s: %d samples, p50 %.2f ms, p99 %.2f ms\n",
				pr.Name, pr.Samples, pr.E2EP50Ms, pr.E2EP99Ms)
		}
		if v := o.SLO; v != nil {
			status := "PASS"
			if !v.Pass {
				status = "FAIL"
			}
			fmt.Printf("slo: %s\n", status)
			for _, r := range v.Rules {
				mark := "ok  "
				if !r.OK {
					mark = "FAIL"
				}
				fmt.Printf("  %s %-28s actual %g\n", mark, r.Rule, r.Actual)
			}
		}
	}
	if p := s.Profile; p != nil {
		fmt.Printf("profile: %d frames, %d cycles attributed — hottest stacks:\n",
			len(p.Frames), p.TotalCycles)
		if err := p.WriteTop(os.Stdout, 10); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("capability faults: %d   cycle attribution exact: %v\n",
		s.CapabilityFaults, s.CycleSumExact)
	if s.CrashReports > 0 || cfg.FlightRecorder > 0 {
		fmt.Printf("crash reports: %d on %d devices, %d micro-reboots\n",
			s.CrashReports, s.CrashDevices, s.Reboots)
	}
	if ro := s.Rollout; ro != nil {
		sec := func(cycle uint64) float64 { return float64(cycle) / float64(hw.DefaultHz) }
		state := ro.Terminal
		if state == "" {
			state = ro.State + " at horizon"
		}
		fmt.Printf("rollout %s: %s — %d on new firmware, %d on old (%d updated, %d rolled back)\n",
			ro.NewFirmware, state, ro.OnNew, ro.OnOld, ro.Updated, ro.RolledBack)
		fmt.Printf("  offers: %d delivered, %d missed; cohort crashes %d (threshold %d)\n",
			ro.OffersDelivered, ro.OffersMissed, ro.CohortCrashes, ro.CrashThreshold)
		for _, ring := range ro.Rings {
			line := fmt.Sprintf("  ring %d (%3g%%, %d devices):", ring.Ring, ring.Percent, ring.Devices)
			if ring.OfferedAtCycle > 0 {
				line += fmt.Sprintf(" offered %.0fs", sec(ring.OfferedAtCycle))
			} else {
				line += " never offered"
			}
			if ring.AdvancedAtCycle > 0 {
				line += fmt.Sprintf(", advanced %.0fs", sec(ring.AdvancedAtCycle))
			} else if ring.Verdict != nil && !ring.Verdict.Pass {
				line += ", bake gate held"
			}
			fmt.Println(line)
		}
		switch {
		case ro.CompleteAtCycle > 0:
			fmt.Printf("  complete at %.0fs\n", sec(ro.CompleteAtCycle))
		case ro.RollbackAtCycle > 0:
			fmt.Printf("  rolled back at %.0fs\n", sec(ro.RollbackAtCycle))
		}
	}
	// The availability curve renders for every run long enough to have
	// one: failover, churn, and partition campaigns need it as much as
	// the PoD storms that introduced it.
	if len(s.AvailabilityPerSecond) > 0 {
		fmt.Printf("availability (devices publishing per simulated second):\n")
		for sec, n := range s.AvailabilityPerSecond {
			bar := strings.Repeat("#", n*40/(s.Devices+1))
			fmt.Printf("  %3ds %4d %s\n", sec, n, bar)
		}
	}
	if *metrics {
		fmt.Println()
		s.Telemetry.WriteTable(os.Stdout)
	}
}
