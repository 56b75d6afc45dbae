// Package fleet instantiates many independent simulated CHERIoT devices —
// each with its own SRAM, capability core, loader-built firmware, and
// netstack — and runs them concurrently on a worker pool against one
// shared simulated cloud (MQTT broker, DNS, SNTP). A load generator gives
// each device a seeded arrival offset, publish schedule, and reconnect
// churn; link fault injection (drop/delay) is per-device and seeded.
//
// Two run modes share all of the per-device logic:
//
//   - parallel: devices are partitioned across shard goroutines
//     (device i → shard i%N);
//   - lockstep: one goroutine runs every device in index order, fully
//     deterministic for a given config+seed.
//
// In both, a shard runs each of its devices straight to the next run
// barrier (a rollout checkpoint, or the horizon) before it starts the
// next device: there are no quanta and no round-robin.
//
// Because each device publishes to its own topic, devices never inject
// events into each other's simulations, so per-device results (and the
// aggregated Summary) are identical across modes and shard counts.
// Cloud-initiated traffic (broadcast fan-out, per-device commands, shard
// failovers) preserves the same guarantee by a different route: a seeded
// schedule is expanded per device onto each device's own cycle-accurate
// event queue (internal/cloud), so nothing any device observes depends
// on another device's progress. The Summary deliberately contains no
// wall-clock fields; wall-clock numbers live in Result, outside the
// deterministic surface.
//
// The shared side is the sharded cloud control plane of internal/cloud:
// N broker shards partitioned by topic, a load-balancing DNS steering
// each device to its home shard, and cross-shard subscription
// forwarding. Config.CloudShards scales it; heterogeneous fleets mix
// device profiles (publish rates, payload sizes, and firmware shapes —
// including a jsvm/microvium JavaScript device) via Config.Profiles.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/cheriot-go/cheriot/internal/cloud"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/ota"
	"github.com/cheriot-go/cheriot/internal/prng"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/snapshot"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Config parameterizes a fleet run. Durations are simulated time (the
// devices' 33 MHz cycle clocks), not wall clock.
type Config struct {
	// Devices is the fleet size (max 60000, the 10.4.0.0/16 device pool).
	Devices int
	// Shards is the worker-pool width; 0 means runtime.NumCPU. Lockstep
	// forces 1.
	Shards int
	// Lockstep selects the deterministic single-goroutine mode: one
	// worker runs every device, in index order, to each barrier. The
	// Summary's "lockstep" field carries the name, and every committed
	// digest covers that field.
	Lockstep bool
	// Duration is the simulated horizon per device. The TLS handshake
	// alone takes ~10 simulated seconds, so runs shorter than that
	// complete with zero publishes.
	Duration time.Duration
	// PublishRate is publishes per simulated second per device.
	PublishRate float64
	// PublishBytes is the payload size.
	PublishBytes int
	// ReconnectEvery makes each device tear down and re-establish its
	// MQTT/TLS session after every N publishes (0 disables churn).
	ReconnectEvery int
	// DropRate is the link frame-drop probability in [0,1).
	DropRate float64
	// JitterCycles adds a seeded inbound delivery delay in [0,n) cycles.
	JitterCycles uint64
	// ArrivalSpread staggers device start times uniformly over this
	// simulated window.
	ArrivalSpread time.Duration
	// Seed drives every random choice (arrival, publish jitter, link
	// faults). Same seed + same config ⇒ identical Summary.
	Seed uint64
	// TraceCapacity sizes each device's telemetry trace ring (0: counters
	// and histograms only).
	TraceCapacity int
	// FlightRecorder sizes each device's flight-recorder event ring
	// (0 disables the black box).
	FlightRecorder int
	// PingOfDeathAt, when non-zero, injects one malformed "ping of
	// death" ICMP frame (spoofed from the broker, so it passes the
	// ingress filter) into every device at this simulated time — the
	// §5.3.3 fault campaign. Devices need ~11 simulated seconds to
	// connect before the spoofed source is allowed through.
	PingOfDeathAt time.Duration
	// SkipAudit skips the pre-launch policy audit of the representative
	// firmware image (the -no-audit escape hatch).
	SkipAudit bool

	// CloudShards is the broker shard count of the sharded cloud control
	// plane (0 and 1 both mean one shard). Distinct from Shards, the
	// worker-pool width: CloudShards scales the shared side, Shards the
	// simulation side.
	CloudShards int
	// FanoutEvery enables cloud-initiated fan-out: every period the cloud
	// publishes to the shared broadcast topic, which all devices
	// subscribe to. Delivery is expanded per device on each device's own
	// clock (see internal/cloud.Schedule), preserving the lockstep ≡
	// parallel equivalence.
	FanoutEvery time.Duration
	// FanoutBytes sizes fan-out payloads (default 32).
	FanoutBytes int
	// FanoutCommands adds a per-device command publish (to a seeded
	// random device's command topic) alongside each fan-out.
	FanoutCommands bool
	// FailoverAt, when non-zero, fails one seeded-random broker shard at
	// this simulated time: every device homed there is kicked and must
	// reconnect.
	FailoverAt time.Duration
	// SessionTTL arms broker-side idle-session reaping (0 disables). The
	// broker reaps only at run barriers (rollout checkpoints and the
	// horizon), against the barrier cycle, so the outcome is the same in
	// every run mode. Choose it above the fleet's longest legitimate idle
	// gap (publish interval, reconnect backoff), or a checkpoint reap
	// drops live sessions.
	SessionTTL time.Duration
	// Profiles makes the fleet heterogeneous: each device is assigned a
	// profile by seeded weighted choice. Empty means one implicit profile
	// from the top-level knobs.
	Profiles []Profile

	// PartitionAt, when non-zero, partitions one seeded-random broker
	// shard from every device homed on it at this simulated time: frames
	// between those devices and their home broker are blackholed in both
	// directions for PartitionFor (the broker-partition fault). Unlike
	// FailoverAt, sessions are not reset — the devices discover the
	// outage through their own timeouts.
	PartitionAt time.Duration
	// PartitionFor is the partition window length (default 3s).
	PartitionFor time.Duration
	// ClockSkewMax, when non-zero, gives every device a seeded wall-clock
	// skew uniform in [-max, +max], applied to the cloud's NTP answers —
	// the clock-skew fault. The simulated cycle clocks are unaffected;
	// only the devices' notion of wall-clock time drifts.
	ClockSkewMax time.Duration
	// QuotaStormAt, when non-zero, makes every device's application
	// exhaust its own allocation quota at this simulated time (allocate
	// until the allocator refuses, publish once under memory pressure,
	// then free everything) — the quota-exhaustion storm. The app
	// compartment imports the allocator only when this is armed, so
	// unarmed configs build byte-identical firmware images.
	QuotaStormAt time.Duration

	// Obs enables the fleet observability pipeline (internal/fleetobs):
	// deterministic end-to-end message tracing, the per-second health
	// series, and SLO evaluation. Off, it costs zero simulated cycles.
	Obs bool
	// ObsSample is the publish sampling probability: 0 defaults to 1
	// (trace everything); a negative value arms the tracer but samples
	// nothing (the zero-cost probe the bench uses).
	ObsSample float64
	// ObsSpanCap bounds each device's span buffer (default 4096;
	// overflow is counted, not recorded).
	ObsSpanCap int
	// SLO is a ';'-separated declarative rule list (see fleetobs.Rule),
	// evaluated against the health series into Summary.Obs.SLO.
	SLO string

	// Prof arms the cycle-exact compartment profiler on every device: the
	// switcher reconstructs cross-compartment call stacks and attributes
	// every simulated cycle to exactly one frame. The per-device profiles
	// merge deterministically into Summary.Profile (lockstep and parallel
	// runs are byte-identical). Off, the hot path pays one nil check.
	Prof bool
	// HostProf times the runner's real wall-clock cost centers — device
	// boot, the step loop, netsim inbox pumping, the merge/report phase —
	// into Result.HostProf. Host-dependent by nature, it never touches
	// the deterministic Summary.
	HostProf bool

	// Rollout, when non-nil, arms the staged OTA firmware rollout
	// (internal/ota): at Plan.StartAt the cloud offers a new firmware
	// image — the fleet app plus an update-agent compartment, audited
	// against FleetPolicy like every other shape — to a seeded canary
	// ring; offered devices micro-reboot into it by forking the new
	// shape's snapshot template. The rollout widens ring-by-ring while
	// the updated cohort's health holds over the plan's bake window and
	// auto-rolls-back when cohort crash reports exceed the plan's
	// threshold. All decisions run on the simulated clock at checkpoint
	// barriers, so lockstep ≡ parallel still holds byte-identically.
	// Requires snapshot/fork boot and the sharded cloud control plane;
	// JS-firmware profiles cannot take a rollout.
	Rollout *ota.Plan

	// NoSnapshot disables snapshot/fork boot (the -no-snapshot escape
	// hatch): every device cold-boots through the full linker + loader
	// path. By default the fleet boots one template device per firmware
	// shape, captures its post-boot state, and forks the rest from the
	// template — byte-identical to a cold boot (internal/snapshot proves
	// it), at a fraction of the per-device cost.
	NoSnapshot bool

	// snapCache is the per-run template cache behind snapshot/fork boot;
	// set by Run, keyed by firmware shape alias (Profile.Firmware).
	snapCache *snapshot.Cache
}

// obsSampleRate resolves the ObsSample convention.
func (c Config) obsSampleRate() float64 {
	if !c.Obs {
		return 0
	}
	switch {
	case c.ObsSample < 0:
		return 0
	case c.ObsSample == 0:
		return 1
	default:
		return c.ObsSample
	}
}

// Profile is one device class in a heterogeneous fleet. Zero-valued
// fields inherit the top-level Config knobs.
type Profile struct {
	// Name labels the profile in the Summary.
	Name string `json:"name"`
	// Weight is the relative share of devices (default 1).
	Weight int `json:"weight"`
	// PublishRate, PublishBytes, and ReconnectEvery override the
	// top-level knobs when nonzero.
	PublishRate    float64 `json:"publish_rate,omitempty"`
	PublishBytes   int     `json:"publish_bytes,omitempty"`
	ReconnectEvery int     `json:"reconnect_every,omitempty"`
	// Firmware selects the device's firmware shape: "fleetapp" (the Go
	// load generator, default) or "jsvm" (the same loop driven by a
	// JavaScript program on the microvium engine, like the §5.3.3
	// iotapp — heavier per operation, as every bytecode step costs
	// interpreter cycles).
	Firmware string `json:"firmware,omitempty"`
}

// FirmwareGo and FirmwareJS are the supported Profile.Firmware values.
const (
	FirmwareGo = "fleetapp"
	FirmwareJS = "jsvm"
)

const maxDevices = 60000

func (c Config) withDefaults() Config {
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.Lockstep {
		c.Shards = 1
	}
	if c.Shards > c.Devices {
		c.Shards = c.Devices
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.PublishRate <= 0 {
		c.PublishRate = 1
	}
	if c.PublishBytes <= 0 {
		c.PublishBytes = 32
	}
	if c.PublishBytes > 512 {
		c.PublishBytes = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CloudShards <= 0 {
		c.CloudShards = 1
	}
	if c.CloudShards > c.Devices {
		c.CloudShards = c.Devices
	}
	if c.FanoutBytes <= 0 {
		c.FanoutBytes = 32
	}
	if c.FanoutBytes > 512 {
		c.FanoutBytes = 512
	}
	if c.Rollout != nil {
		p := c.Rollout.WithDefaults()
		c.Rollout = &p
		if c.FlightRecorder <= 0 {
			// The rollback trigger is flight-recorder crash reports in
			// the updated cohort; a rollout without recorders is blind.
			c.FlightRecorder = 256
		}
	}
	// Default a copy: c's Profiles still share the caller's array.
	c.Profiles = slices.Clone(c.Profiles)
	for i := range c.Profiles {
		p := &c.Profiles[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("profile%d", i)
		}
		if p.Weight <= 0 {
			p.Weight = 1
		}
		if p.PublishRate <= 0 {
			p.PublishRate = c.PublishRate
		}
		if p.PublishBytes <= 0 {
			p.PublishBytes = c.PublishBytes
		}
		if p.PublishBytes > 512 {
			p.PublishBytes = 512
		}
		if p.ReconnectEvery <= 0 {
			p.ReconnectEvery = c.ReconnectEvery
		}
		if p.Firmware == "" {
			p.Firmware = FirmwareGo
		}
	}
	return c
}

// validate rejects settings no device can run: a drop rate outside
// [0,1), a publish rate, profile rate or trace sampling probability that
// is NaN or infinite, and a negative arrival spread, which would start no
// device's app. Run calls it before withDefaults, which would otherwise
// turn a -Inf rate into the default.
func (c Config) validate() error {
	if c.ArrivalSpread < 0 {
		return fmt.Errorf("fleet: arrival spread %v is negative", c.ArrivalSpread)
	}
	if !(c.DropRate >= 0 && c.DropRate < 1) {
		return fmt.Errorf("fleet: drop rate %v is outside [0,1)", c.DropRate)
	}
	if math.IsNaN(c.PublishRate) || math.IsInf(c.PublishRate, 0) {
		return fmt.Errorf("fleet: publish rate %v is not finite", c.PublishRate)
	}
	if math.IsNaN(c.ObsSample) || math.IsInf(c.ObsSample, 0) {
		return fmt.Errorf("fleet: obs sample %v is not finite", c.ObsSample)
	}
	for _, p := range c.Profiles {
		if math.IsNaN(p.PublishRate) || math.IsInf(p.PublishRate, 0) {
			return fmt.Errorf("fleet: profile %q rate %v is not finite", p.Name, p.PublishRate)
		}
	}
	return nil
}

// profileFor resolves device i's profile by seeded weighted choice (its
// own rng stream, so assignment is independent of run mode and worker
// count). With no Profiles configured, an implicit profile mirrors the
// top-level knobs.
func (c Config) profileFor(i int) Profile {
	if len(c.Profiles) == 0 {
		return Profile{Name: "default", Weight: 1, PublishRate: c.PublishRate,
			PublishBytes: c.PublishBytes, ReconnectEvery: c.ReconnectEvery,
			Firmware: FirmwareGo}
	}
	total := 0
	for _, p := range c.Profiles {
		total += p.Weight
	}
	r := prng.NewSplitMix(c.Seed, uint64(i)+2<<32)
	pick := int(r.Below(uint64(total)))
	for _, p := range c.Profiles {
		pick -= p.Weight
		if pick < 0 {
			return p
		}
	}
	return c.Profiles[len(c.Profiles)-1]
}

func (c Config) horizonCycles() uint64 { return durationCycles(c.Duration) }

func (c Config) arrivalSpreadCycles() uint64 { return durationCycles(c.ArrivalSpread) }

// durationCycles converts a simulated duration to cycles (0 for d <= 0).
// Microsecond granularity avoids uint64 overflow for any sane duration
// (33 cycles per µs).
func durationCycles(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d.Microseconds()) * (hw.DefaultHz / 1_000_000)
}

func (c Config) quotaStormCycles() uint64 { return durationCycles(c.QuotaStormAt) }

// partitionWindow resolves the broker-partition fault to a cycle window
// (0,0 when unarmed).
func (c Config) partitionWindow() (from, until uint64) {
	if c.PartitionAt <= 0 {
		return 0, 0
	}
	length := c.PartitionFor
	if length <= 0 {
		length = 3 * time.Second
	}
	from = durationCycles(c.PartitionAt)
	return from, from + durationCycles(length)
}

// partitionShard picks the seeded-random victim shard of the
// broker-partition fault (-1 when unarmed). Its own rng stream, so the
// choice is independent of every other seeded schedule.
func (c Config) partitionShard() int {
	if c.PartitionAt <= 0 {
		return -1
	}
	return int(prng.NewSplitMix(c.Seed, 5<<32).Below(uint64(c.CloudShards)))
}

// skewMillisFor resolves device i's seeded wall-clock skew in
// milliseconds, uniform in [-max, +max] (0 when the fault is unarmed).
func (c Config) skewMillisFor(i int) int64 {
	maxMs := c.ClockSkewMax.Milliseconds()
	if maxMs <= 0 {
		return 0
	}
	r := prng.NewSplitMix(c.Seed, uint64(i)+4<<32)
	return int64(r.Below(uint64(2*maxMs+1))) - maxMs
}

// fanoutEnabled reports whether devices should subscribe to the broadcast
// and command topics and drain notifications.
func (c Config) fanoutEnabled() bool { return c.FanoutEvery > 0 }

// cloudSchedule expands the cloud-initiated event configuration into the
// deterministic seeded schedule shared by every device.
func (c Config) cloudSchedule() []cloud.Event {
	if !c.fanoutEnabled() && c.FailoverAt <= 0 {
		return nil
	}
	return cloud.BuildSchedule(cloud.ScheduleConfig{
		Seed:         c.Seed,
		Devices:      c.Devices,
		Shards:       c.CloudShards,
		Horizon:      c.horizonCycles(),
		Every:        durationCycles(c.FanoutEvery),
		PayloadBytes: c.FanoutBytes,
		Commands:     c.FanoutCommands,
		FailoverAt:   durationCycles(c.FailoverAt),
		Trace:        c.obsSampleRate() > 0,
	})
}

// Summary is the deterministic digest of a fleet run: everything here is
// a pure function of Config (including Seed). No wall-clock quantities.
type Summary struct {
	Devices        int     `json:"devices"`
	Shards         int     `json:"shards"`
	Lockstep       bool    `json:"lockstep"`
	Seed           uint64  `json:"seed"`
	SimSeconds     float64 `json:"sim_seconds"`
	PublishRate    float64 `json:"publish_rate"`
	PublishBytes   int     `json:"publish_bytes"`
	DropRate       float64 `json:"drop_rate"`
	JitterCycles   uint64  `json:"jitter_cycles"`
	ReconnectEvery int     `json:"reconnect_every"`

	DevicesOK    int `json:"devices_ok"`
	DeviceErrors int `json:"device_errors"`

	SetupFailures   uint64 `json:"setup_failures"`
	Connects        uint64 `json:"connects"`
	ConnectFailures uint64 `json:"connect_failures"`
	Reconnects      uint64 `json:"reconnects"`
	Publishes       uint64 `json:"publishes"`
	PublishErrors   uint64 `json:"publish_errors"`

	// Fleet-wide throughput in simulated time.
	PublishesPerSimSecond float64 `json:"publishes_per_sim_second"`

	// Exact percentiles over all devices' samples, in milliseconds of
	// simulated time.
	ConnectP50Ms float64 `json:"connect_p50_ms"`
	ConnectP99Ms float64 `json:"connect_p99_ms"`
	PublishP50Ms float64 `json:"publish_p50_ms"`
	PublishP99Ms float64 `json:"publish_p99_ms"`

	// Link counters summed over all Worlds.
	FramesFromDevices uint64 `json:"frames_from_devices"`
	FramesToDevices   uint64 `json:"frames_to_devices"`
	FramesDropped     uint64 `json:"frames_dropped"`

	// Shared-cloud broker counters, summed over shards.
	BrokerConnects     int `json:"broker_connects"`
	BrokerSubscribes   int `json:"broker_subscribes"`
	BrokerPublishes    int `json:"broker_publishes"`
	BrokerLiveSessions int `json:"broker_live_sessions"`
	// BrokerSuperseded and BrokerReaped count sessions dropped by client
	// takeover and by TTL reaping (the churn-growth fix).
	BrokerSuperseded int `json:"broker_superseded"`
	BrokerReaped     int `json:"broker_reaped"`

	// CloudShards is the control-plane shard count; BrokerShards is the
	// per-shard breakdown.
	CloudShards  int                   `json:"cloud_shards"`
	BrokerShards []cloud.ShardCounters `json:"broker_shards"`

	// Cloud-initiated event accounting. A fan-out or command "lands"
	// when the target device holds a connected, subscribed session at
	// the scheduled cycle; early events (before a device finishes its
	// ~11 s bring-up) count as missed.
	FanoutDelivered   uint64 `json:"fanout_delivered"`
	FanoutMissed      uint64 `json:"fanout_missed"`
	CommandsDelivered uint64 `json:"commands_delivered"`
	FailoverKicks     uint64 `json:"failover_kicks"`
	// NotificationsReceived counts cloud publishes the device apps
	// actually drained end-to-end (through TLS + MQTT wait).
	NotificationsReceived uint64 `json:"notifications_received"`

	// AvailabilityPerSecond[t] is how many devices completed at least
	// one publish during simulated second t — the fleet availability
	// curve, which makes ping-of-death recovery measurable.
	AvailabilityPerSecond []int `json:"availability_per_second,omitempty"`

	// Partition describes the broker-partition fault when armed.
	Partition *PartitionInfo `json:"partition,omitempty"`
	// SkewedDevices counts devices running with a non-zero seeded
	// wall-clock skew (only when the clock-skew fault is armed).
	SkewedDevices int `json:"skewed_devices,omitempty"`
	// Quota-storm accounting: allocations the storm obtained before the
	// allocator refused, refusals observed (≥1 per storming device), and
	// publishes completed while the quota was exhausted.
	QuotaStormAllocs    uint64 `json:"quota_storm_allocs,omitempty"`
	QuotaStormDenied    uint64 `json:"quota_storm_denied,omitempty"`
	QuotaStormPublishes uint64 `json:"quota_storm_publishes,omitempty"`

	// ProfileStats breaks the fleet down by device profile (only when
	// Profiles are configured).
	ProfileStats []ProfileStat `json:"profile_stats,omitempty"`

	// CapabilityFaults is the fleet-wide switcher trap count; a healthy
	// workload runs with zero.
	CapabilityFaults int64 `json:"capability_faults"`
	// CrashReports counts the flight-recorder post-mortem reports across
	// all devices (0 when recorders are disabled or no faults occurred);
	// CrashDevices is how many devices produced at least one.
	CrashReports uint64 `json:"crash_reports"`
	CrashDevices int    `json:"crash_devices"`
	// Reboots is the fleet-wide micro-reboot total.
	Reboots int `json:"reboots"`
	// CycleSumExact asserts the telemetry invariant across the whole
	// fleet: for every device AttributedCycles == clock − base, and the
	// merged per-compartment cycles sum exactly to the merged
	// AttributedCycles.
	CycleSumExact bool `json:"cycle_sum_exact"`

	// Rollout is the staged OTA rollout's final state (nil unless
	// Config.Rollout): the ring/bake/rollback state machine with
	// per-ring offer/advance cycle timestamps, the final firmware
	// split, and the cohort crash accounting. Every field is simulated-
	// clock data, so it is part of the deterministic surface.
	Rollout *ota.Status `json:"rollout,omitempty"`

	// Obs is the observability report — traced publish→deliver latency
	// per shard and per profile, the per-second health series, and the
	// SLO verdict. Nil unless Config.Obs. Fully deterministic.
	Obs *fleetobs.Report `json:"obs,omitempty"`

	// Profile is the fleet-merged cycle profile (nil unless Config.Prof):
	// per-device folded call stacks with exact cycle attribution, summed
	// frame-by-frame across devices. Deterministic — lockstep and parallel
	// runs of the same config+seed produce byte-identical profiles — so
	// it lives in the Summary, and the per-frame invariant (SelfSum ==
	// TotalCycles == Σ per-device clock deltas) folds into CycleSumExact.
	Profile *prof.Profile `json:"profile,omitempty"`

	// Telemetry is the fleet-merged snapshot (per-compartment cycle
	// totals summed across devices, counters, histograms).
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// PartitionInfo records the resolved broker-partition fault in the
// Summary: which shard was cut off, how many devices that affected, and
// the window in simulated seconds.
type PartitionInfo struct {
	Shard       int     `json:"shard"`
	Devices     int     `json:"devices"`
	FromSecond  float64 `json:"from_second"`
	UntilSecond float64 `json:"until_second"`
}

// ProfileStat is the per-profile slice of the Summary.
type ProfileStat struct {
	Name      string `json:"name"`
	Firmware  string `json:"firmware"`
	Devices   int    `json:"devices"`
	Connects  uint64 `json:"connects"`
	Publishes uint64 `json:"publishes"`
}

// Result is what Run returns: the deterministic Summary plus wall-clock
// measurements and the per-device detail.
type Result struct {
	Summary Summary
	// Config is the fully-defaulted configuration the run used; scenario
	// fixtures re-run variations of it (e.g. the same fleet with
	// NoSnapshot) without re-deriving the defaults.
	Config   Config
	Devices  []*Device
	BootWall time.Duration
	RunWall  time.Duration
	// Snapshot counts the snapshot/fork boot cache's work (nil when
	// NoSnapshot or a single device): templates captured, cold boots,
	// forks. Host-path bookkeeping, not part of the deterministic Summary.
	Snapshot *snapshot.CacheStats
	// Spans is the merged, deterministically sorted span list (empty
	// unless Config.Obs); export it with fleetobs.WriteChromeTrace.
	Spans []fleetobs.Span
	// MaxInboxDepth is the deepest World inbox seen at pump time across
	// the fleet. It depends on host scheduling (worker count, timing),
	// which is why it lives here and not in the Summary.
	MaxInboxDepth int
	// HostProf is the host-side wall-clock phase split — boot, step,
	// pump, merge — per worker (nil unless Config.HostProf). Like the
	// wall timings above it is host-dependent, so it stays out of the
	// Summary.
	HostProf *prof.HostProfile
}

// Run builds and runs a fleet per cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Devices > maxDevices {
		return nil, fmt.Errorf("fleet: %d devices exceeds the %d address pool", cfg.Devices, maxDevices)
	}
	sloRules, err := fleetobs.ParseRules(cfg.SLO)
	if err != nil {
		return nil, err
	}
	if len(sloRules) > 0 && !cfg.Obs {
		return nil, errors.New("fleet: SLO rules require Obs (tracing feeds the health series)")
	}
	// Pre-launch audit gate: every device is stamped from one firmware
	// shape, so one policy check covers the fleet. A violation refuses
	// the launch before any device boots.
	if !cfg.SkipAudit {
		if err := auditGate(cfg); err != nil {
			return nil, err
		}
	}
	// Snapshot/fork boot: one template per firmware shape, forked into
	// every further device. Pointless for a single device — unless a
	// rollout is armed, whose swaps fork from templates; -no-snapshot
	// forces the full loader path per device.
	cfg.snapCache = nil
	if (cfg.Devices > 1 || cfg.Rollout != nil) && !cfg.NoSnapshot {
		cfg.snapCache = snapshot.NewCache()
	}
	pl := newCloud(&cfg)
	schedule := cfg.cloudSchedule()
	horizon := cfg.horizonCycles()
	var rollout *rolloutRuntime
	if cfg.Rollout != nil {
		rollout, err = newRolloutRuntime(&cfg, pl, schedule)
		if err != nil {
			return nil, err
		}
	}
	devices := make([]*Device, cfg.Devices)
	buildErrs := make([]error, cfg.Shards)

	// Build phase: each shard boots its own devices so firmware loading
	// parallelizes too.
	shardIndices := make([][]int, cfg.Shards)
	for i := 0; i < cfg.Devices; i++ {
		s := i % cfg.Shards
		shardIndices[s] = append(shardIndices[s], i)
	}
	// hp stays nil unless HostProf; every Add on it is nil-safe.
	var hp *prof.HostProfile
	if cfg.HostProf {
		hp = prof.NewHostProfile(cfg.Shards)
	}
	bootStart := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t0 := time.Now()
			built := 0
			var coldWall, forkWall time.Duration
			var colds, forks uint64
			for _, i := range shardIndices[s] {
				d, err := buildDevice(&cfg, pl, schedule, i)
				if err != nil {
					buildErrs[s] = err
					return
				}
				devices[i] = d
				built++
				if d.Forked {
					forkWall += d.bootWall
					forks++
				} else {
					coldWall += d.bootWall
					colds++
				}
			}
			hp.Add("boot", time.Since(t0), uint64(built))
			// Sub-phases isolate System construction (linker + loader vs
			// snapshot fork) from the rest of buildDevice (image defs,
			// netsim world, telemetry arming), which is identical either way.
			if colds > 0 {
				hp.Add("boot/cold", coldWall, colds)
			}
			if forks > 0 {
				hp.Add("boot/fork", forkWall, forks)
			}
		}(s)
	}
	wg.Wait()
	bootWall := time.Since(bootStart)
	if err := errors.Join(buildErrs...); err != nil {
		return nil, err
	}

	// Run phase: each shard runs its devices one after another, each
	// straight to the next barrier — the horizon, or an armed rollout's
	// next checkpoint. There are no quanta and no round-robin. At a
	// checkpoint all shards join, the broker reaps idle sessions against
	// the barrier cycle, the controller observes and decides (possibly
	// swapping firmware on some devices) single-threaded, and the shards
	// resume — the same device-cycle points in every run mode, which is
	// what keeps reaping and rollout decisions inside the lockstep ≡
	// parallel guarantee.
	runStart := time.Now()
	var boundaries []uint64
	if rollout != nil {
		boundaries = append(boundaries, rollout.checkpoints...)
	}
	boundaries = append(boundaries, horizon)
	var rolloutErr error
	for _, bound := range boundaries {
		bound := bound
		for s := 0; s < cfg.Shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				t0 := time.Now()
				runShard(devices, shardIndices[s], bound)
				hp.Add("step", time.Since(t0), 1)
			}(s)
		}
		wg.Wait()
		if bound < horizon {
			pl.ReapDead(bound)
			if err := rollout.step(devices, bound); err != nil {
				rolloutErr = err
				break
			}
		}
	}
	if hp != nil {
		// The pump estimate is part of the step wall, broken out so
		// the split shows where the step loop's time goes.
		for s := 0; s < cfg.Shards; s++ {
			var pump time.Duration
			var pumps uint64
			for _, i := range shardIndices[s] {
				pump += devices[i].pumpEstimate()
				pumps += devices[i].pumpCount
			}
			hp.Add("pump", pump, pumps)
		}
	}
	runWall := time.Since(runStart)
	if rolloutErr != nil {
		return nil, rolloutErr
	}

	for _, d := range devices {
		d.closeIncarnation()
	}
	// The horizon barrier's reap: with every device stopped, dropping
	// idle-beyond-TTL state is a pure function of the run.
	pl.ReapDead(horizon)

	mergeStart := time.Now()
	spans := collectSpans(devices)
	res := &Result{
		Summary:  summarize(cfg, pl, devices, sloRules, spans, rollout),
		Devices:  devices,
		BootWall: bootWall,
		RunWall:  runWall,
		Spans:    spans,
	}
	if cfg.snapCache != nil {
		stats := cfg.snapCache.Stats()
		res.Snapshot = &stats
	}
	// The published Config must not retain the template cache (it can pin
	// a full SRAM snapshot per shape).
	res.Config = cfg
	res.Config.snapCache = nil
	hp.Add("merge", time.Since(mergeStart), 1)
	hp.Finish()
	res.HostProf = hp
	for _, d := range devices {
		if depth := d.Obs.MaxInboxDepth(); depth > res.MaxInboxDepth {
			res.MaxInboxDepth = depth
		}
	}
	return res, nil
}

// collectSpans merges every device's span buffer into one
// deterministically sorted list (nil when tracing is off).
func collectSpans(devices []*Device) []fleetobs.Span {
	var spans []fleetobs.Span
	for _, d := range devices {
		spans = append(spans, d.Obs.Spans()...)
	}
	fleetobs.SortSpans(spans)
	return spans
}

// runShard runs each of its devices to bound with one runSlice, in
// fixed index order (which is what makes single-shard mode lockstep).
// No device observes another's progress, so how far one runs before the
// next starts is a host-only choice: running each straight to the
// barrier keeps its SRAM, kernel and thread stacks hot in the host's
// caches for the whole visit.
func runShard(devices []*Device, indices []int, bound uint64) {
	for _, i := range indices {
		d := devices[i]
		// A rollout-segmented run re-enters here once per segment; a
		// device that already failed stays down.
		if d.Err == nil {
			d.Err = d.runSlice(bound)
		}
	}
}

// summarize aggregates the fleet: stats sums, exact percentiles, link and
// per-shard broker counters, the availability curve, and the merged
// telemetry snapshot with the fleet-wide cycle-attribution invariant
// check.
func summarize(cfg Config, pl *cloud.Plane, devices []*Device,
	sloRules []fleetobs.Rule, spans []fleetobs.Span, rollout *rolloutRuntime) Summary {
	s := Summary{
		Devices:        cfg.Devices,
		Shards:         cfg.Shards,
		Lockstep:       cfg.Lockstep,
		Seed:           cfg.Seed,
		SimSeconds:     float64(cfg.horizonCycles()) / float64(hw.DefaultHz),
		PublishRate:    cfg.PublishRate,
		PublishBytes:   cfg.PublishBytes,
		DropRate:       cfg.DropRate,
		JitterCycles:   cfg.JitterCycles,
		ReconnectEvery: cfg.ReconnectEvery,
		CloudShards:    cfg.CloudShards,
	}

	var connectLat, publishLat []uint64
	snaps := make([]telemetry.Snapshot, 0, len(devices)+1)
	var deviceProfiles []*prof.Profile
	exact := true
	seconds := int(s.SimSeconds + 0.5)
	availability := make([]int, seconds)
	profiles := make(map[string]*ProfileStat)
	for _, d := range devices {
		if d.Err != nil {
			s.DeviceErrors++
		} else {
			s.DevicesOK++
		}
		st := &d.Stats
		s.SetupFailures += st.SetupFailures
		s.Connects += st.Connects
		s.ConnectFailures += st.ConnectFailures
		s.Reconnects += st.Reconnects
		s.Publishes += st.Publishes
		s.PublishErrors += st.PublishErrors
		s.QuotaStormAllocs += st.StormAllocs
		s.QuotaStormDenied += st.StormDenied
		s.QuotaStormPublishes += st.StormPublishes
		if d.SkewMillis != 0 {
			s.SkewedDevices++
		}
		s.FanoutDelivered += st.FanoutDelivered
		s.FanoutMissed += st.FanoutMissed
		s.CommandsDelivered += st.CommandsDelivered
		s.FailoverKicks += st.FailoverKicks
		s.NotificationsReceived += st.Notifications
		connectLat = append(connectLat, st.ConnectLatency...)
		publishLat = append(publishLat, st.PublishLatency...)
		for sec, n := range st.PublishSeconds {
			if n > 0 && sec < len(availability) {
				availability[sec]++
			}
		}
		if len(cfg.Profiles) > 0 {
			ps := profiles[d.Profile.Name]
			if ps == nil {
				ps = &ProfileStat{Name: d.Profile.Name, Firmware: d.Profile.Firmware}
				profiles[d.Profile.Name] = ps
			}
			ps.Devices++
			ps.Connects += st.Connects
			ps.Publishes += st.Publishes
		}

		// Every incarnation (one per firmware swap, plus the boot image)
		// closed into a record; Merge sorts frames, so the merged
		// profile is identical whatever partition ran the devices.
		for _, r := range d.closed {
			exact = exact && r.exact
			snaps = append(snaps, r.tel)
			if cfg.Prof {
				deviceProfiles = append(deviceProfiles, r.prof)
			}
			s.FramesFromDevices += r.framesFrom
			s.FramesToDevices += r.framesTo
			s.FramesDropped += r.drops
			s.Reboots += r.reboots
		}
		if total := d.crashTotal(); total > 0 {
			s.CrashReports += total
			s.CrashDevices++
		}
	}
	s.AvailabilityPerSecond = availability
	if rollout != nil {
		s.Rollout = rollout.rolloutStatus(devices)
	}
	if victim := cfg.partitionShard(); victim >= 0 {
		from, until := cfg.partitionWindow()
		info := &PartitionInfo{
			Shard:       victim,
			FromSecond:  float64(from) / float64(hw.DefaultHz),
			UntilSecond: float64(until) / float64(hw.DefaultHz),
		}
		for _, d := range devices {
			if d.Partitioned {
				info.Devices++
			}
		}
		s.Partition = info
	}
	for _, p := range cfg.Profiles {
		if ps := profiles[p.Name]; ps != nil {
			s.ProfileStats = append(s.ProfileStats, *ps)
		}
	}

	if s.SimSeconds > 0 {
		s.PublishesPerSimSecond = float64(s.Publishes) / s.SimSeconds
	}
	s.ConnectP50Ms = fleetobs.CyclesToMs(fleetobs.Percentile(connectLat, 0.50), hw.DefaultHz)
	s.ConnectP99Ms = fleetobs.CyclesToMs(fleetobs.Percentile(connectLat, 0.99), hw.DefaultHz)
	s.PublishP50Ms = fleetobs.CyclesToMs(fleetobs.Percentile(publishLat, 0.50), hw.DefaultHz)
	s.PublishP99Ms = fleetobs.CyclesToMs(fleetobs.Percentile(publishLat, 0.99), hw.DefaultHz)

	s.BrokerShards = pl.ShardStats()
	// Stable shard order regardless of worker scheduling: the per-shard
	// table (and everything derived from it, including the synthesized
	// cloud telemetry) must not depend on how shard stats were gathered.
	sort.Slice(s.BrokerShards, func(i, j int) bool {
		return s.BrokerShards[i].Shard < s.BrokerShards[j].Shard
	})
	for _, sh := range s.BrokerShards {
		s.BrokerConnects += sh.Connects
		s.BrokerSubscribes += sh.Subscribes
		s.BrokerPublishes += sh.Publishes
		s.BrokerLiveSessions += sh.LiveSessions
		s.BrokerSuperseded += sh.Superseded
		s.BrokerReaped += sh.Reaped
	}

	if cfg.Obs {
		in := fleetobs.Input{
			Hz:           hw.DefaultHz,
			Devices:      cfg.Devices,
			Seconds:      seconds,
			Shards:       cfg.CloudShards,
			SampleRate:   cfg.obsSampleRate(),
			Spans:        spans,
			Availability: availability,
		}
		for _, d := range devices {
			in.SpansDropped += d.Obs.Dropped()
			for sec, n := range d.Obs.LinkDrops() {
				for len(in.DropSeconds) <= sec {
					in.DropSeconds = append(in.DropSeconds, 0)
				}
				in.DropSeconds[sec] += n
			}
			for _, rep := range d.crashReports() {
				sec := int(rep.Cycle / hw.DefaultHz)
				for len(in.CrashSeconds) <= sec {
					in.CrashSeconds = append(in.CrashSeconds, 0)
				}
				in.CrashSeconds[sec]++
			}
		}
		profOf := make([]string, len(devices))
		for i, d := range devices {
			profOf[i] = d.Profile.Name
		}
		in.ProfileOf = func(i int) string {
			if i < 0 || i >= len(profOf) {
				return "?"
			}
			return profOf[i]
		}
		s.Obs = fleetobs.Aggregate(in)
		if len(sloRules) > 0 {
			v := fleetobs.Evaluate(sloRules, s.Obs)
			s.Obs.SLO = &v
		}
		// The traced latency histograms enter the merged telemetry the
		// same way the cloud counters do: a synthesized cycle-less
		// snapshot, leaving the cycle-sum invariant untouched.
		snaps = append(snaps, fleetobs.TelemetrySnapshot(in))
	}

	// Per-shard counters enter the merged telemetry as a synthesized
	// cycle-less snapshot (merged last, so Hz comes from the devices);
	// the cycle-sum invariant is untouched because the cloud contributes
	// no cycle accounts.
	snaps = append(snaps, cloudSnapshot(s.BrokerShards))
	s.Telemetry = telemetry.Merge(snaps...)
	var compSum uint64
	for _, a := range s.Telemetry.Compartments {
		compSum += a.Cycles
	}
	if cfg.Prof {
		s.Profile = prof.Merge(deviceProfiles...)
		if s.Profile.SelfSum() != s.Profile.TotalCycles {
			exact = false
		}
	}
	s.CycleSumExact = exact && compSum == s.Telemetry.AttributedCycles
	s.CapabilityFaults = counterSum(s.Telemetry.Counters, telemetry.DomainSwitcher, "traps")
	return s
}

// cloudSnapshot synthesizes a telemetry snapshot from the per-shard
// broker counters, so fleet dashboards see the cloud side through the
// same merged metric namespace as the devices.
func cloudSnapshot(shards []cloud.ShardCounters) telemetry.Snapshot {
	var snap telemetry.Snapshot
	for _, sh := range shards {
		comp := fmt.Sprintf("cloud/shard%d", sh.Shard)
		snap.Counters = append(snap.Counters,
			telemetry.MetricSnapshot{Compartment: comp, Metric: "connects", Value: int64(sh.Connects)},
			telemetry.MetricSnapshot{Compartment: comp, Metric: "forwarded", Value: int64(sh.Forwarded)},
			telemetry.MetricSnapshot{Compartment: comp, Metric: "publishes", Value: int64(sh.Publishes)},
			telemetry.MetricSnapshot{Compartment: comp, Metric: "reaped", Value: int64(sh.Reaped)},
			telemetry.MetricSnapshot{Compartment: comp, Metric: "subscribes", Value: int64(sh.Subscribes)},
			telemetry.MetricSnapshot{Compartment: comp, Metric: "superseded", Value: int64(sh.Superseded)},
		)
	}
	return snap
}

// counterSum returns the value of one merged counter (0 if absent).
func counterSum(counters []telemetry.MetricSnapshot, comp, metric string) int64 {
	for _, c := range counters {
		if c.Compartment == comp && c.Metric == metric {
			return c.Value
		}
	}
	return 0
}
