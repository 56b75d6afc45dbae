// Package scenario is the declarative campaign harness: a scenario
// names a fleet shape (devices, shards, profiles), a fault schedule
// (ping-of-death storms, shard failover, broker partitions, clock
// skew, quota-exhaustion storms, reconnect churn), fixtures that check
// pre/post state (telemetry cycle-sum invariant, flight-recorder leak
// check), and pass criteria expressed as fleetobs SLO rules. Suites
// compose scenarios; the runner executes a suite across a seed matrix
// — sequentially or with a worker pool, both producing byte-identical
// aggregated verdicts — and judges every scenario×seed cell.
//
// A scenario declares its fleet as a fleet.Config, the struct the
// cheriot-fleet flags set, written as a delta from the flag defaults
// (fleetcli.Default). So "this scenario is the old -pod campaign" is a
// provable statement: parse the documented flag line with
// fleetcli.ParseArgs, compare configs, compare summaries (see the
// equivalence tests).
package scenario

import (
	"fmt"
	"sort"

	"github.com/cheriot-go/cheriot/internal/fleet"
)

// Scenario is one declarative campaign: a fleet shape plus fault
// schedule (Fleet), SLO pass criteria, and state-check fixtures.
type Scenario struct {
	// Name is the registry key ("pod-storm", "broker-partition", ...).
	Name string
	// Summary is the one-line human description shown by `list`.
	Summary string
	// Fleet declares the fleet shape and fault schedule: the
	// fleet.Config cheriot-fleet's flags set, as a delta from
	// fleetcli.Default. The Seed and SLO fields are owned by the
	// harness and must stay zero.
	Fleet fleet.Config
	// SLO is the pass criteria over the run's health series, in
	// fleetobs rule syntax ("availability>=0.9@28s;crashes<=0"). It
	// implies observability, exactly like the -slo flag.
	SLO string
	// Fixtures are extra pre/post state checks judged alongside the
	// SLO verdict.
	Fixtures []Fixture
	// Equivalent documents the cheriot-fleet invocation this scenario
	// ports, as a flag string (without -seed). The equivalence tests
	// parse it and prove config and summary identity; empty for
	// scenarios that never existed as ad-hoc flag campaigns.
	Equivalent string
}

// Config builds the scenario's fleet configuration for one seed: the
// declared Fleet with the seed and the SLO set, and observability on
// when there is an SLO, as -slo turns on -obs. Fixtures then get their
// chance to adjust it (e.g. LeakFree arming the flight recorder).
func (s Scenario) Config(seed uint64) (fleet.Config, error) {
	c := s.Fleet
	if c.Seed != 0 || c.SLO != "" {
		return fleet.Config{}, fmt.Errorf("scenario %s: Fleet.Seed/Fleet.SLO are harness-owned; use the seed matrix and the SLO field", s.Name)
	}
	c.Seed = seed
	c.SLO = s.SLO
	c.Obs = c.Obs || c.SLO != ""
	for _, f := range s.Fixtures {
		if p, ok := f.(interface{ Prepare(*fleet.Config) error }); ok {
			if err := p.Prepare(&c); err != nil {
				return fleet.Config{}, fmt.Errorf("scenario %s: fixture %s: %w", s.Name, f.Name(), err)
			}
		}
	}
	return c, nil
}

var (
	registry = map[string]Scenario{}
	suites   = map[string][]string{}
)

// Register adds a scenario to the registry; duplicate names are a
// programming error.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate scenario " + s.Name)
	}
	registry[s.Name] = s
}

// RegisterSuite names an ordered scenario composition. Every member
// must already be registered.
func RegisterSuite(name string, members ...string) {
	if _, dup := suites[name]; dup {
		panic("scenario: duplicate suite " + name)
	}
	if len(members) == 0 {
		panic("scenario: empty suite " + name)
	}
	for _, m := range members {
		if _, ok := registry[m]; !ok {
			panic("scenario: suite " + name + " references unknown scenario " + m)
		}
	}
	suites[name] = members
}

// Get returns a registered scenario.
func Get(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Suite resolves a suite name to its scenarios, in declaration order.
func Suite(name string) ([]Scenario, bool) {
	members, ok := suites[name]
	if !ok {
		return nil, false
	}
	out := make([]Scenario, len(members))
	for i, m := range members {
		out[i] = registry[m]
	}
	return out, true
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SuiteNames returns the registered suite names, sorted.
func SuiteNames() []string {
	out := make([]string, 0, len(suites))
	for n := range suites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SuiteMembers returns a suite's member names, in order.
func SuiteMembers(name string) []string {
	return append([]string(nil), suites[name]...)
}
