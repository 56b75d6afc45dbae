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
// Durations are simulated time (33 MHz device clocks). The summary on
// stdout, JSON or the text report (fleet.Summary.WriteText, which
// cheriot-inspect fleet re-renders from the JSON byte for byte), is
// deterministic for a given config+seed; wall-clock timings go to
// stderr. With -slo the process exits 3 when any rule is violated.
//
// The fleet-shaping flags set a fleet.Config through internal/fleetcli,
// the struct registered scenarios declare (see cheriot-campaign), so a
// flag invocation and its ported scenario are provably equivalent.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetcli"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/hw"
)

func main() {
	cfg := fleetcli.Default()
	finish := fleetcli.Register(flag.CommandLine, &cfg)
	metrics := flag.Bool("metrics", false, "print the fleet-merged cycle-attribution table")
	jsonOut := flag.Bool("json", false, "print the deterministic summary as JSON on stdout")
	dumpDir := flag.String("dump-dir", "", "write the flight-recorder dump of every device incarnation that raised a crash report to this directory")
	obsTrace := flag.String("obs-trace", "", "write the merged spans as a Chrome trace to this file")
	obsHealth := flag.String("obs-health", "", "write the per-second health series as JSON to this file")
	profOut := flag.String("prof-out", "", "write the merged cycle profile as JSON to this file (needs -prof; inspect with cheriot-prof)")
	flag.Parse()

	errs := []error{finish()}
	if *dumpDir != "" && cfg.FlightRecorder == 0 {
		errs = append(errs, errors.New("-dump-dir needs -flightrec to enable the recorders"))
	}
	if (*obsTrace != "" || *obsHealth != "") && !cfg.Obs {
		errs = append(errs, errors.New("-obs-trace/-obs-health need -obs"))
	}
	if *profOut != "" && !cfg.Prof {
		errs = append(errs, errors.New("-prof-out needs -prof"))
	}
	if err := errors.Join(errs...); err != nil {
		log.Fatalf("fleet: %v", err)
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

	if *profOut != "" {
		writeFile(*profOut, s.Profile.WriteJSON)
		fmt.Fprintf(os.Stderr, "wrote %d profile frames to %s (inspect with cheriot-prof)\n",
			len(s.Profile.Frames), *profOut)
	}
	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		written := 0
		for _, d := range res.Devices {
			// One file per incarnation with a crash report, in
			// incarnation order.
			for k, dump := range d.CrashDumps() {
				writeFile(filepath.Join(*dumpDir, fmt.Sprintf("device-%05d-%d.json", d.Index, k)), dump.WriteJSON)
				written++
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d crash dumps to %s (inspect with cheriot-inspect)\n", written, *dumpDir)
	}
	if *obsTrace != "" {
		writeFile(*obsTrace, func(w io.Writer) error { return fleetobs.WriteChromeTrace(w, res.Spans, hw.DefaultHz) })
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
			len(res.Spans), *obsTrace)
	}
	if *obsHealth != "" {
		writeFile(*obsHealth, func(w io.Writer) error { return writeJSON(w, s.Obs.Health) })
		fmt.Fprintf(os.Stderr, "wrote %d health points to %s\n", len(s.Obs.Health), *obsHealth)
	}

	if *jsonOut {
		err = writeJSON(os.Stdout, s)
	} else {
		err = s.WriteText(os.Stdout, false)
		if *metrics {
			fmt.Println()
			s.Telemetry.WriteTable(os.Stdout)
		}
	}
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	// The SLO gate runs regardless of output format; the exit code is the
	// machine-readable verdict.
	if s.Obs != nil && s.Obs.SLO != nil && !s.Obs.SLO.Pass {
		os.Exit(3)
	}
}

// writeFile creates path and fills it with write, exiting on failure.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
}

// writeJSON encodes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
