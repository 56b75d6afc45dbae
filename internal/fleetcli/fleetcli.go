// Package fleetcli is the one flag→fleet.Config code path shared by the
// cheriot-fleet CLI and the scenario registry (internal/scenario): a
// cheriot-fleet invocation and a registered scenario that declare the
// same options build the same fleet.Config through the same function,
// which is what makes "this scenario is the old -pod campaign" a
// provable statement rather than a comment.
package fleetcli

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// Options mirrors cheriot-fleet's fleet-shaping flags, one field per
// flag. The zero value is NOT the default flag set — use Default() —
// so scenario literals read as deltas from the CLI defaults.
type Options struct {
	Devices      int           // -devices: fleet size
	Workers      int           // -workers: worker-pool width (0: NumCPU)
	CloudShards  int           // -shards: cloud broker shard count
	Lockstep     bool          // -lockstep
	Duration     time.Duration // -duration: simulated horizon
	PublishRate  float64       // -publish-rate
	PublishBytes int           // -publish-bytes
	Churn        int           // -churn: reconnect after every N publishes
	Drop         float64       // -drop: link frame-drop probability
	Jitter       uint64        // -jitter: inbound delivery jitter cycles
	Spread       time.Duration // -spread: arrival window
	Seed         uint64        // -seed
	Fanout       time.Duration // -fanout: cloud broadcast period
	FanoutBytes  int           // -fanout-bytes
	FanoutCmds   bool          // -fanout-cmds
	Failover     time.Duration // -failover: shard failover time
	SessionTTL   time.Duration // -session-ttl
	Profiles     string        // -profiles: heterogeneous profile spec
	FlightRec    int           // -flightrec: per-device recorder capacity
	PoD          time.Duration // -pod: ping-of-death injection time
	Partition    time.Duration // -partition: broker-partition start
	PartitionFor time.Duration // -partition-for: partition window length
	ClockSkew    time.Duration // -clock-skew: max abs per-device NTP skew
	QuotaStorm   time.Duration // -quota-storm: quota-exhaustion time
	NoAudit      bool          // -no-audit
	Obs          bool          // -obs
	ObsSample    float64       // -obs-sample
	ObsSpans     int           // -obs-spans
	SLO          string        // -slo (implies -obs)
	Prof         bool          // -prof: cycle-exact compartment profiler
	HostProf     bool          // -hostprof: host wall-clock phase split
	NoSnapshot   bool          // -no-snapshot: cold-boot every device

	// Staged OTA rollout (internal/ota). Rollout arms it; the companion
	// -rollout-* flags refine the plan and are rejected without it.
	Rollout         time.Duration // -rollout: first canary offer time (0: off)
	RolloutRings    string        // -rollout-rings: e.g. "1,10,50,100"
	RolloutCheck    time.Duration // -rollout-check: controller checkpoint period
	RolloutBringUp  time.Duration // -rollout-bringup: reboot+reconnect allowance
	RolloutBake     time.Duration // -rollout-bake: trailing health window
	RolloutSLO      string        // -rollout-slo: availability rules gating rings
	RolloutCrashMax int           // -rollout-crash-max: rollback threshold
	RolloutPoison   bool          // -rollout-poison: ship a deliberately crashy image
}

// Default returns the cheriot-fleet flag defaults.
func Default() Options {
	return Options{
		Devices:      16,
		CloudShards:  1,
		Duration:     20 * time.Second,
		PublishRate:  1,
		PublishBytes: 32,
		Spread:       2 * time.Second,
		Seed:         1,
		FanoutBytes:  32,
		PartitionFor: 3 * time.Second,
	}
}

// Register binds every option to its flag on fs, with the receiver's
// current values as defaults. Call flag parsing afterwards, then
// Config.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.IntVar(&o.Devices, "devices", o.Devices, "fleet size")
	fs.IntVar(&o.Workers, "workers", o.Workers, "worker-pool width (0: number of CPUs)")
	fs.IntVar(&o.CloudShards, "shards", o.CloudShards, "cloud broker shard count")
	fs.BoolVar(&o.Lockstep, "lockstep", o.Lockstep, "deterministic single-goroutine mode (devices run in index order)")
	fs.DurationVar(&o.Duration, "duration", o.Duration, "simulated horizon per device (TLS connect alone takes ~10s)")
	fs.Float64Var(&o.PublishRate, "publish-rate", o.PublishRate, "publishes per simulated second per device")
	fs.IntVar(&o.PublishBytes, "publish-bytes", o.PublishBytes, "publish payload size")
	fs.IntVar(&o.Churn, "churn", o.Churn, "reconnect after every N publishes (0: off)")
	fs.Float64Var(&o.Drop, "drop", o.Drop, "link frame-drop probability [0,1)")
	fs.Uint64Var(&o.Jitter, "jitter", o.Jitter, "inbound delivery jitter in cycles")
	fs.DurationVar(&o.Spread, "spread", o.Spread, "arrival window for staggered device start")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "seed for arrival, jitter, and fault schedules")
	fs.DurationVar(&o.Fanout, "fanout", o.Fanout, "cloud broadcast fan-out period in simulated time (0: off)")
	fs.IntVar(&o.FanoutBytes, "fanout-bytes", o.FanoutBytes, "fan-out payload size")
	fs.BoolVar(&o.FanoutCmds, "fanout-cmds", o.FanoutCmds, "add a per-device command publish alongside each fan-out")
	fs.DurationVar(&o.Failover, "failover", o.Failover, "fail one seeded-random broker shard at this simulated time (0: off)")
	fs.DurationVar(&o.SessionTTL, "session-ttl", o.SessionTTL, "broker idle-session reaping TTL in simulated time (0: off)")
	fs.StringVar(&o.Profiles, "profiles", o.Profiles, "heterogeneous device profiles: 'name[:weight[:rate=N,bytes=N,churn=N,fw=jsvm]];...'")
	fs.IntVar(&o.FlightRec, "flightrec", o.FlightRec, "per-device flight-recorder ring capacity (0: off)")
	fs.DurationVar(&o.PoD, "pod", o.PoD, "inject a ping of death into every device at this simulated time (0: off)")
	fs.DurationVar(&o.Partition, "partition", o.Partition, "partition one seeded-random broker shard from its devices at this simulated time (0: off)")
	fs.DurationVar(&o.PartitionFor, "partition-for", o.PartitionFor, "broker-partition window length")
	fs.DurationVar(&o.ClockSkew, "clock-skew", o.ClockSkew, "max per-device NTP wall-clock skew, seeded in [-max,+max] (0: off)")
	fs.DurationVar(&o.QuotaStorm, "quota-storm", o.QuotaStorm, "exhaust every device app's allocation quota at this simulated time (0: off)")
	fs.BoolVar(&o.NoAudit, "no-audit", o.NoAudit, "skip the pre-launch policy audit of the representative image")
	fs.BoolVar(&o.Obs, "obs", o.Obs, "enable distributed message tracing and the health/SLO pipeline")
	fs.Float64Var(&o.ObsSample, "obs-sample", o.ObsSample, "publish trace sampling probability (0: trace everything; negative: armed but silent)")
	fs.IntVar(&o.ObsSpans, "obs-spans", o.ObsSpans, "per-device span buffer capacity (0: default 4096)")
	fs.StringVar(&o.SLO, "slo", o.SLO, "SLO rules over the health series, e.g. 'delivery>=0.99;p99<=5ms;availability>=0.9@12s' (implies -obs)")
	fs.BoolVar(&o.Prof, "prof", o.Prof, "cycle-exact compartment profiler (folded call stacks in the summary)")
	fs.BoolVar(&o.HostProf, "hostprof", o.HostProf, "time the runner's host wall-clock phases (boot/step/pump/merge)")
	fs.BoolVar(&o.NoSnapshot, "no-snapshot", o.NoSnapshot, "disable snapshot/fork boot: run the full loader for every device instead of forking from a per-shape template")
	fs.DurationVar(&o.Rollout, "rollout", o.Rollout, "stage an OTA firmware rollout: first canary offer at this simulated time (0: off)")
	fs.StringVar(&o.RolloutRings, "rollout-rings", o.RolloutRings, "rollout rings as cumulative fleet percentages, e.g. '1,10,50,100' (default from plan)")
	fs.DurationVar(&o.RolloutCheck, "rollout-check", o.RolloutCheck, "rollout controller checkpoint period (default 1s)")
	fs.DurationVar(&o.RolloutBringUp, "rollout-bringup", o.RolloutBringUp, "time an offered ring gets to micro-reboot and reconnect before its bake window (default 12s)")
	fs.DurationVar(&o.RolloutBake, "rollout-bake", o.RolloutBake, "trailing health window a ring must satisfy before the rollout widens (default 3s)")
	fs.StringVar(&o.RolloutSLO, "rollout-slo", o.RolloutSLO, "availability rules gating ring widening, e.g. 'availability>=0.5' (default)")
	fs.IntVar(&o.RolloutCrashMax, "rollout-crash-max", o.RolloutCrashMax, "roll back once updated-cohort crash reports exceed this (default 2)")
	fs.BoolVar(&o.RolloutPoison, "rollout-poison", o.RolloutPoison, "ship a deliberately crashy update image (exercises auto-rollback)")
}

// Config builds the fleet configuration, parsing the profile spec and
// resolving the SLO-implies-Obs convention. This is the single code
// path behind both the CLI and registered scenarios.
//
// Contradictory flag combinations are rejected with ONE error listing
// every bad flag, so a long invocation is fixed in one edit, not one
// rejection at a time.
func (o Options) Config() (fleet.Config, error) {
	profiles, err := fleet.ParseProfiles(o.Profiles)
	if err != nil {
		return fleet.Config{}, fmt.Errorf("profiles: %w", err)
	}
	var bad []string
	if o.Failover > 0 && o.CloudShards < 2 {
		bad = append(bad, fmt.Sprintf("-failover fails one of several broker shards, but -shards is %d", o.CloudShards))
	}
	var rollout *ota.Plan
	if o.Rollout > 0 {
		if o.NoSnapshot {
			bad = append(bad, "-no-snapshot disables the snapshot templates the -rollout firmware swaps fork from")
		}
		for _, p := range profiles {
			if p.Firmware == fleet.FirmwareJS {
				bad = append(bad, fmt.Sprintf("-rollout updates the %s firmware only, but -profiles deploys %s devices", fleet.FirmwareGo, fleet.FirmwareJS))
				break
			}
		}
		rings, rerr := parseRings(o.RolloutRings)
		if rerr != nil {
			bad = append(bad, "-rollout-rings: "+rerr.Error())
		}
		rollout = &ota.Plan{
			StartAt:        o.Rollout,
			CheckEvery:     o.RolloutCheck,
			Rings:          rings,
			BringUp:        o.RolloutBringUp,
			Bake:           o.RolloutBake,
			HealthSLO:      o.RolloutSLO,
			CrashThreshold: o.RolloutCrashMax,
			Poisoned:       o.RolloutPoison,
		}
	} else {
		for flagName, set := range map[string]bool{
			"-rollout-rings":     o.RolloutRings != "",
			"-rollout-check":     o.RolloutCheck != 0,
			"-rollout-bringup":   o.RolloutBringUp != 0,
			"-rollout-bake":      o.RolloutBake != 0,
			"-rollout-slo":       o.RolloutSLO != "",
			"-rollout-crash-max": o.RolloutCrashMax != 0,
			"-rollout-poison":    o.RolloutPoison,
		} {
			if set {
				bad = append(bad, flagName+" without -rollout")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fleet.Config{}, fmt.Errorf("contradictory flags: %s", strings.Join(bad, "; "))
	}
	return fleet.Config{
		Devices:        o.Devices,
		Shards:         o.Workers,
		Lockstep:       o.Lockstep,
		Duration:       o.Duration,
		PublishRate:    o.PublishRate,
		PublishBytes:   o.PublishBytes,
		ReconnectEvery: o.Churn,
		DropRate:       o.Drop,
		JitterCycles:   o.Jitter,
		ArrivalSpread:  o.Spread,
		Seed:           o.Seed,
		FlightRecorder: o.FlightRec,
		PingOfDeathAt:  o.PoD,
		SkipAudit:      o.NoAudit,
		CloudShards:    o.CloudShards,
		FanoutEvery:    o.Fanout,
		FanoutBytes:    o.FanoutBytes,
		FanoutCommands: o.FanoutCmds,
		FailoverAt:     o.Failover,
		SessionTTL:     o.SessionTTL,
		Profiles:       profiles,
		PartitionAt:    o.Partition,
		PartitionFor:   o.PartitionFor,
		ClockSkewMax:   o.ClockSkew,
		QuotaStormAt:   o.QuotaStorm,
		Obs:            o.Obs || o.SLO != "",
		ObsSample:      o.ObsSample,
		ObsSpanCap:     o.ObsSpans,
		SLO:            o.SLO,
		Prof:           o.Prof,
		HostProf:       o.HostProf,
		NoSnapshot:     o.NoSnapshot,
		Rollout:        rollout,
	}, nil
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
// invocation and compare against the scenario's declared options.
func ParseArgs(args []string) (fleet.Config, error) {
	o := Default()
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // the returned error is the diagnostic
	o.Register(fs)
	if err := fs.Parse(args); err != nil {
		return fleet.Config{}, err
	}
	if fs.NArg() > 0 {
		return fleet.Config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o.Config()
}
