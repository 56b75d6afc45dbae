package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
)

// fleetMain implements `cheriot-inspect fleet`: it reads fleet Summary
// JSON files (as written by cheriot-fleet -json) and renders each one
// with fleet.Summary.WriteText, byte for byte what cheriot-fleet printed
// for the live run. With -slo, fresh rules are evaluated against the
// embedded health report and replace the recorded verdict, so a recorded
// run can be re-judged against new objectives without re-simulating.
// Exits 3 if any rendered verdict fails, matching cheriot-fleet's SLO
// gate.
func fleetMain(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	sloRules := fs.String("slo", "", "re-evaluate these SLO rules against the embedded health series (e.g. 'p99<=50ms;availability>=0.9@12s')")
	healthAll := fs.Bool("health", false, "print every second of the health series (default: first and last few)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cheriot-inspect fleet [-slo rules] [-health] summary.json ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	rules, err := fleetobs.ParseRules(*sloRules)
	if err != nil {
		fatal(err)
	}

	failed := false
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var s fleet.Summary
		if err := json.Unmarshal(data, &s); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if len(rules) > 0 {
			if s.Obs == nil {
				fatal(fmt.Errorf("%s: no observability report to re-judge (run cheriot-fleet with -obs)", path))
			}
			v := fleetobs.Evaluate(rules, s.Obs)
			s.Obs.SLO = &v
		}
		if fs.NArg() > 1 {
			fmt.Printf("==> %s <==\n", path)
		}
		if err := s.WriteText(os.Stdout, *healthAll); err != nil {
			fatal(err)
		}
		if s.Obs != nil && s.Obs.SLO != nil && !s.Obs.SLO.Pass {
			failed = true
		}
	}
	if failed {
		os.Exit(3)
	}
}
