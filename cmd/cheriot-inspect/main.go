// cheriot-inspect reads flight-recorder dumps (the per-device black
// boxes written by cheriot-fleet -dump-dir, or any Dump.WriteJSON) and
// renders timelines, capability-provenance chains, per-compartment event
// histograms, and Chrome-trace exports.
//
// Usage:
//
//	cheriot-inspect dump.json ...             # crash reports with provenance
//	cheriot-inspect -timeline dump.json       # full event timeline
//	cheriot-inspect -timeline -comp tcpip -op call -last 50 dump.json
//	cheriot-inspect -hist dump1.json dump2.json   # aggregated histogram
//	cheriot-inspect -chrome trace.json dump.json  # chrome://tracing export
//	cheriot-inspect -demo                     # built-in use-after-free scenario
//	cheriot-inspect -demo -o uaf.json         # ... and save its dump
//
// The fleet mode reads fleet Summary JSON (cheriot-fleet -json) instead
// of flight-recorder dumps and renders it exactly as cheriot-fleet
// printed the live run:
//
//	cheriot-inspect fleet summary.json            # the run's report, SLO verdict included
//	cheriot-inspect fleet -health summary.json    # ... with the full per-second health table
//	cheriot-inspect fleet -slo 'p99<=50ms' s.json # re-judge a recorded run
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		fleetMain(os.Args[2:])
		return
	}
	demo := flag.Bool("demo", false, "run the built-in use-after-free scenario and inspect its black box")
	out := flag.String("o", "", "with -demo: also write the scenario's dump JSON to this path")
	timeline := flag.Bool("timeline", false, "print the event timeline")
	comp := flag.String("comp", "", "timeline filter: only this compartment")
	op := flag.String("op", "", "timeline filter: only this event kind (e.g. call, alloc, trap)")
	last := flag.Int("last", 0, "timeline filter: only the last N matching events")
	hist := flag.Bool("hist", false, "print the per-compartment event histogram (aggregated over all dumps)")
	chrome := flag.String("chrome", "", "write a chrome://tracing JSON export of the timelines to this path, one process per dump")
	flag.Parse()

	var dumps []*flightrec.Dump
	if *demo {
		d, err := demoDump()
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := d.WriteJSON(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote dump to %s\n", *out)
		}
		dumps = append(dumps, d)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		d, err := flightrec.ReadDump(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		dumps = append(dumps, d)
	}
	if len(dumps) == 0 {
		fmt.Fprintln(os.Stderr, "usage: cheriot-inspect [-demo] [-timeline|-hist|-chrome out.json] dump.json ...")
		os.Exit(2)
	}

	switch {
	case *timeline:
		for _, d := range dumps {
			printTimeline(d, *comp, *op, *last)
		}
	case *hist:
		flightrec.WriteHistogram(os.Stdout, dumps...)
	case *chrome != "":
		if err := writeChrome(*chrome, dumps); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote chrome trace to %s\n", *chrome)
	default:
		printSummaries(dumps)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cheriot-inspect:", err)
	os.Exit(1)
}

// printSummaries is the default view: one header per dump plus every
// retained crash report, pretty-printed with its provenance chain.
func printSummaries(dumps []*flightrec.Dump) {
	for _, d := range dumps {
		name := d.Device
		if name == "" {
			name = "(unnamed device)"
		}
		fmt.Printf("%s: %d events (%d dropped, ring capacity %d), %d live / %d freed allocations, %d crash reports\n",
			name, len(d.Events), d.Dropped, d.Capacity, len(d.Live), len(d.Freed), len(d.Reports))
		for i := range d.Reports {
			flightrec.WriteReport(os.Stdout, &d.Reports[i])
		}
	}
}

// printTimeline renders a dump's events through the kind/compartment/last
// filters.
func printTimeline(d *flightrec.Dump, comp, op string, last int) {
	kind := telemetry.KindCount
	if op != "" {
		kind = telemetry.KindFromString(op)
		if kind == telemetry.KindCount {
			fatal(fmt.Errorf("unknown event kind %q", op))
		}
	}
	var events []telemetry.Event
	for _, ev := range d.Events {
		if comp != "" && ev.To != comp && ev.From != comp {
			continue
		}
		if op != "" && ev.Kind != kind {
			continue
		}
		events = append(events, ev)
	}
	if last > 0 && len(events) > last {
		events = events[len(events)-last:]
	}
	if d.Device != "" {
		fmt.Printf("--- %s ---\n", d.Device)
	}
	for _, ev := range events {
		fmt.Println(ev)
	}
}

// writeChrome exports the dumps' timelines as one Chrome trace, each
// dump its own process named after its device, so dumps open directly
// in chrome://tracing / Perfetto.
func writeChrome(path string, dumps []*flightrec.Dump) error {
	var trace telemetry.ChromeTrace
	var dropped uint64
	for i, d := range dumps {
		pid := i + 1
		name := d.Device
		if name == "" {
			name = fmt.Sprintf("dump %d", pid)
		}
		trace.NameProcess(pid, name)
		hz := d.Hz
		if hz == 0 {
			hz = hw.DefaultHz
		}
		trace.AddEvents(pid, d.Events, hz)
		dropped += d.Dropped
	}
	if dropped > 0 {
		trace.OtherData = map[string]any{"dropped_events": dropped}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
