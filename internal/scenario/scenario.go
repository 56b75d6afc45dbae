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
// A scenario declares its fleet as its cheriot-fleet command line
// without -seed, and every cell's fleet.Config is that line and the
// cell's -seed parsed by fleetcli.ParseArgs, the flags the CLI itself
// registers. So `cheriot-fleet <line> -seed N` reruns a cell, and
// `cheriot-campaign list` prints each line ready to paste into a shell.
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/fleetcli"
)

// Scenario is one declarative campaign: a fleet shape, fault schedule
// and SLO pass criteria (Fleet), and state-check fixtures.
type Scenario struct {
	// Name is the registry key ("pod-storm", "broker-partition", ...).
	Name string
	// Summary is the one-line human description shown by `list`.
	Summary string
	// Fleet is the scenario's cheriot-fleet command line without -seed,
	// which the seed matrix owns: fleet-shaping flags only, split on
	// whitespace with no quoting, so no value may hold a space. Its -slo
	// rules are the cell's pass criteria. Set no flag twice: the later
	// value would win unseen.
	Fleet string
	// Fixtures are extra pre/post state checks judged alongside the
	// SLO verdict.
	Fixtures []Fixture
}

// Config builds the scenario's fleet configuration for one seed: its
// line and -seed parsed by fleetcli.ParseArgs. A line that sets -seed
// itself is refused.
func (s Scenario) Config(seed uint64) (fleet.Config, error) {
	args := strings.Fields(s.Fleet)
	for _, a := range args {
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if strings.HasPrefix(a, "-") && name == "seed" {
			return fleet.Config{}, fmt.Errorf("scenario %s: the line sets -seed, which the seed matrix owns", s.Name)
		}
	}
	c, err := fleetcli.ParseArgs(append(args, "-seed", strconv.FormatUint(seed, 10)))
	if err != nil {
		return fleet.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return c, nil
}

var (
	registry = map[string]Scenario{}
	suites   = map[string][]string{}
)

// Register adds a scenario to the registry; a duplicate name, or a line
// that does not parse or sets -seed, is a programming error.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate scenario " + s.Name)
	}
	if _, err := s.Config(1); err != nil {
		panic(err.Error())
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
