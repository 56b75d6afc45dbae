// Package fleetcli binds cheriot-fleet's fleet-shaping flags to the
// fields of fleet.Config, the one fleet configuration; registered
// scenarios (internal/scenario) declare the same struct. ParseArgs
// turns a documented flag line into its Config for a test to compare
// with a scenario's, which makes "this scenario is the old -pod
// campaign" a provable statement rather than a comment.
package fleetcli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// Default returns the configuration behind cheriot-fleet's flag
// defaults. Scenario literals read as deltas from it.
func Default() fleet.Config {
	return fleet.Config{
		Devices:       16,
		CloudShards:   1,
		Duration:      20 * time.Second,
		PublishRate:   1,
		PublishBytes:  32,
		ArrivalSpread: 2 * time.Second,
		Seed:          1,
		FanoutBytes:   32,
		PartitionFor:  3 * time.Second,
	}
}

// Register binds each fleet-shaping flag on fs to its field of cfg,
// with cfg's current values as defaults; -profiles and the -rollout
// flags start empty. Call the returned finish after parsing: it parses
// the -profiles and -rollout-rings specs into Profiles and the rollout
// plan, lets -slo imply -obs, and joins its own errors (a bad spec, a
// -rollout-* flag without -rollout) with cfg.Check's into ONE error
// naming each, so a long invocation is fixed in one edit, not one
// rejection at a time.
func Register(fs *flag.FlagSet, cfg *fleet.Config) (finish func() error) {
	fs.IntVar(&cfg.Devices, "devices", cfg.Devices, "fleet size")
	fs.IntVar(&cfg.Shards, "workers", cfg.Shards, "worker-pool width (0: number of CPUs)")
	fs.IntVar(&cfg.CloudShards, "shards", cfg.CloudShards, "cloud broker shard count")
	fs.BoolVar(&cfg.Lockstep, "lockstep", cfg.Lockstep, "deterministic single-goroutine mode (devices run in index order)")
	fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "simulated horizon per device (TLS connect alone takes ~10s)")
	fs.Float64Var(&cfg.PublishRate, "publish-rate", cfg.PublishRate, "publishes per simulated second per device")
	fs.IntVar(&cfg.PublishBytes, "publish-bytes", cfg.PublishBytes, "publish payload size")
	fs.IntVar(&cfg.ReconnectEvery, "churn", cfg.ReconnectEvery, "reconnect after every N publishes (0: off)")
	fs.Float64Var(&cfg.DropRate, "drop", cfg.DropRate, "link frame-drop probability [0,1)")
	fs.Uint64Var(&cfg.JitterCycles, "jitter", cfg.JitterCycles, "inbound delivery jitter in cycles")
	fs.DurationVar(&cfg.ArrivalSpread, "spread", cfg.ArrivalSpread, "arrival window for staggered device start")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "seed for arrival, jitter, and fault schedules")
	fs.DurationVar(&cfg.FanoutEvery, "fanout", cfg.FanoutEvery, "cloud broadcast fan-out period in simulated time (0: off)")
	fs.IntVar(&cfg.FanoutBytes, "fanout-bytes", cfg.FanoutBytes, "fan-out payload size")
	fs.BoolVar(&cfg.FanoutCommands, "fanout-cmds", cfg.FanoutCommands, "add a per-device command publish alongside each fan-out")
	fs.DurationVar(&cfg.FailoverAt, "failover", cfg.FailoverAt, "fail one seeded-random broker shard at this simulated time (0: off)")
	fs.DurationVar(&cfg.SessionTTL, "session-ttl", cfg.SessionTTL, "broker idle-session reaping TTL in simulated time (0: off)")
	fs.IntVar(&cfg.FlightRecorder, "flightrec", cfg.FlightRecorder, "per-device flight-recorder ring capacity (0: off)")
	fs.DurationVar(&cfg.PingOfDeathAt, "pod", cfg.PingOfDeathAt, "inject a ping of death into every device at this simulated time (0: off)")
	fs.DurationVar(&cfg.PartitionAt, "partition", cfg.PartitionAt, "partition one seeded-random broker shard from its devices at this simulated time (0: off)")
	fs.DurationVar(&cfg.PartitionFor, "partition-for", cfg.PartitionFor, "broker-partition window length")
	fs.DurationVar(&cfg.ClockSkewMax, "clock-skew", cfg.ClockSkewMax, "max per-device NTP wall-clock skew, seeded in [-max,+max] (0: off)")
	fs.DurationVar(&cfg.QuotaStormAt, "quota-storm", cfg.QuotaStormAt, "exhaust every device app's allocation quota at this simulated time (0: off)")
	fs.BoolVar(&cfg.SkipAudit, "no-audit", cfg.SkipAudit, "skip the pre-launch policy audit of the representative image")
	fs.BoolVar(&cfg.Obs, "obs", cfg.Obs, "enable distributed message tracing and the health/SLO pipeline")
	fs.Float64Var(&cfg.ObsSample, "obs-sample", cfg.ObsSample, "publish trace sampling probability (0: trace everything; negative: armed but silent)")
	fs.IntVar(&cfg.ObsSpanCap, "obs-spans", cfg.ObsSpanCap, "per-device span buffer capacity (0: default 4096)")
	fs.StringVar(&cfg.SLO, "slo", cfg.SLO, "SLO rules over the health series, e.g. 'delivery>=0.99;p99<=5ms;availability>=0.9@12s' (implies -obs)")
	fs.BoolVar(&cfg.Prof, "prof", cfg.Prof, "cycle-exact compartment profiler (folded call stacks in the summary)")
	fs.BoolVar(&cfg.HostProf, "hostprof", cfg.HostProf, "time the runner's host wall-clock phases (boot/step/pump/merge)")
	fs.BoolVar(&cfg.NoSnapshot, "no-snapshot", cfg.NoSnapshot, "disable snapshot/fork boot: run the full loader for every device instead of forking from a per-shape template")

	var profiles, rings string
	var plan ota.Plan
	fs.StringVar(&profiles, "profiles", "", "heterogeneous device profiles: 'name[:weight[:rate=N,bytes=N,churn=N,fw=jsvm]];...'")
	// Staged OTA rollout (internal/ota). -rollout arms it; the companion
	// -rollout-* flags refine the plan and are rejected without it.
	fs.DurationVar(&plan.StartAt, "rollout", 0, "stage an OTA firmware rollout: first canary offer at this simulated time (0: off)")
	fs.StringVar(&rings, "rollout-rings", "", "rollout rings as cumulative fleet percentages, e.g. '1,10,50,100' (default from plan)")
	fs.DurationVar(&plan.CheckEvery, "rollout-check", 0, "rollout controller checkpoint period (default 1s)")
	fs.DurationVar(&plan.BringUp, "rollout-bringup", 0, "time an offered ring gets to micro-reboot and reconnect before its bake window (default 12s)")
	fs.DurationVar(&plan.Bake, "rollout-bake", 0, "trailing health window a ring must satisfy before the rollout widens (default 3s)")
	fs.StringVar(&plan.HealthSLO, "rollout-slo", "", "availability rules gating ring widening, e.g. 'availability>=0.5' (default)")
	fs.IntVar(&plan.CrashThreshold, "rollout-crash-max", 0, "roll back once updated-cohort crash reports exceed this (default 2)")
	fs.BoolVar(&plan.Poisoned, "rollout-poison", false, "ship a deliberately crashy update image (exercises auto-rollback)")

	return func() error {
		var errs []error
		ps, err := fleet.ParseProfiles(profiles)
		if err != nil {
			errs = append(errs, fmt.Errorf("-profiles: %w", err))
		}
		cfg.Profiles = ps
		cfg.Obs = cfg.Obs || cfg.SLO != ""
		if plan.StartAt > 0 {
			if plan.Rings, err = parseRings(rings); err != nil {
				errs = append(errs, fmt.Errorf("-rollout-rings: %w", err))
			}
			cfg.Rollout = &plan
		} else {
			fs.Visit(func(f *flag.Flag) {
				if strings.HasPrefix(f.Name, "rollout-") {
					errs = append(errs, fmt.Errorf("-%s without -rollout", f.Name))
				}
			})
		}
		return errors.Join(append(errs, cfg.Check())...)
	}
}

// parseRings parses the -rollout-rings spec: comma-separated cumulative
// fleet percentages. Empty means "use the plan defaults" (nil).
func parseRings(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	rings := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("ring %q is not a percentage", strings.TrimSpace(p))
		}
		rings = append(rings, v)
	}
	return rings, nil
}

// ParseArgs parses a cheriot-fleet style argument list (fleet-shaping
// flags only) into a config, starting from the CLI defaults. It is the
// equivalence bridge: scenario tests feed it the documented legacy
// invocation and compare against the scenario's declared config.
func ParseArgs(args []string) (fleet.Config, error) {
	cfg := Default()
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // the returned error is the diagnostic
	finish := Register(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return fleet.Config{}, err
	}
	if fs.NArg() > 0 {
		return fleet.Config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if err := finish(); err != nil {
		return fleet.Config{}, err
	}
	return cfg, nil
}
