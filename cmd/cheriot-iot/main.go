// cheriot-iot runs the §5.3.3 IoT case study (the Fig. 7 scenario) on the
// simulated CHERIoT platform and reports the trace.
//
// Usage:
//
//	cheriot-iot            # human-readable summary + load chart
//	cheriot-iot -csv       # per-second load samples as CSV
//	cheriot-iot -report    # also print the firmware audit report
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/iotapp"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

func main() {
	csv := flag.Bool("csv", false, "emit per-second CPU-load samples as CSV")
	printReport := flag.Bool("report", false, "also print the firmware audit report")
	trace := flag.Int("trace", 0, "record and print the last N kernel events")
	metrics := flag.Bool("metrics", false, "enable telemetry and print the cycle-attribution table after the run")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run (implies -metrics collection)")
	flag.Parse()

	app, err := iotapp.Build()
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer app.Shutdown()
	// Open the trace file before the run: a bad path should not cost a
	// full simulation.
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
	}
	if *metrics || *traceOut != "" || *trace > 0 {
		// One ring serves both -trace-out and -trace: it holds every layer's
		// events, so -trace picks the kernel's out of it.
		capacity := 0
		if *traceOut != "" || *trace > 0 {
			capacity = max(1<<16, *trace)
		}
		app.Sys.EnableTelemetry(capacity)
	}
	if *trace > 0 {
		defer func() {
			fmt.Println("\nkernel trace (most recent events):")
			for _, e := range lastKernelEvents(app.Sys.Telemetry().Ring().Events(), *trace) {
				fmt.Println(" ", e)
			}
		}()
	}

	if *printReport {
		if b, err := app.Sys.Report.JSON(); err == nil {
			os.Stdout.Write(append(b, '\n'))
		}
	}

	res, err := app.Run()
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	if traceFile != nil {
		if err := app.Sys.Telemetry().WriteChromeTrace(traceFile); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
	if *metrics {
		defer app.Sys.Telemetry().WriteTable(os.Stdout)
	}

	if *csv {
		fmt.Println("second,load_pct,phase")
		marks := map[int]string{}
		for _, p := range res.Phases {
			marks[int(p.Cycle/hw.DefaultHz)] = p.Name
		}
		for _, s := range res.Samples {
			fmt.Printf("%d,%.1f,%s\n", s.Second, s.LoadPct, marks[s.Second])
		}
		return
	}

	fmt.Printf("deployment: %d compartments, %.1f KB code, %.1f KB data, %.1f KB heap high water\n",
		res.Compartments,
		float64(res.Footprint.CodeBytes)/1024,
		float64(res.Footprint.DataBytes)/1024,
		float64(res.HeapHighWater)/1024)
	fmt.Printf("trace: %.1f s simulated, average CPU load %.1f%%\n", res.TotalSeconds, res.AvgLoadPct)
	fmt.Printf("micro-reboots: %d (last %.0f ms)   notifications: %d   LED changes: %d\n\n",
		res.Reboots, res.RebootMs, res.Notifications, res.LEDChanges)
	for i, p := range res.Phases {
		sec := float64(p.Cycle) / float64(hw.DefaultHz)
		dur := ""
		if i+1 < len(res.Phases) {
			dur = fmt.Sprintf(" (%.1fs)", float64(res.Phases[i+1].Cycle-p.Cycle)/float64(hw.DefaultHz))
		}
		fmt.Printf("t=%5.1fs  %s%s\n", sec, p.Name, dur)
	}
	fmt.Println("\nCPU load:")
	for _, s := range res.Samples {
		fmt.Printf("%3ds %5.1f%% %s\n", s.Second, s.LoadPct, strings.Repeat("#", int(s.LoadPct/2.5)))
	}
}

// lastKernelEvents returns the last n kernel-layer events, oldest first.
func lastKernelEvents(events []telemetry.Event, n int) []telemetry.Event {
	var out []telemetry.Event
	for i := len(events) - 1; i >= 0 && len(out) < n; i-- {
		if events[i].Kind.Layer() == "kernel" {
			out = append(out, events[i])
		}
	}
	slices.Reverse(out)
	return out
}
