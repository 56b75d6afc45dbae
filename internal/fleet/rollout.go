package fleet

import (
	"fmt"
	"sort"
	"time"

	"github.com/cheriot-go/cheriot/internal/cloud"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// otaAliasSuffix distinguishes the updated firmware's snapshot-template
// alias from the boot image's: "fleetapp" boots cold once for the whole
// fleet, "fleetapp+ota" boots cold once more when the first canary
// updates, and every further swap — update or rollback — forks.
const otaAliasSuffix = "+ota"

// rolloutRuntime binds the pure ota.Controller to a running fleet: it
// owns the seeded device order, the checkpoint schedule, and the
// firmware swaps. Every method runs on the fleet's controller goroutine
// at checkpoint barriers (all shard goroutines joined), so it may touch
// any device without racing.
type rolloutRuntime struct {
	cfg      *Config
	pl       *cloud.Plane
	schedule []cloud.Event
	ctrl     *ota.Controller
	// order is the seeded permutation of device indices; ring k offers
	// the update to order[ringTo[k-1]:ringTo[k]].
	order []int
	// checkpoints are the barrier cycles (StartAt + k·CheckEvery, below
	// the horizon) where the controller observes and decides.
	checkpoints []uint64

	offersDelivered int
	offersMissed    int
}

// newRolloutRuntime validates the plan against the fleet and derives
// the deterministic rollout schedule.
func newRolloutRuntime(cfg *Config, pl *cloud.Plane, schedule []cloud.Event) (*rolloutRuntime, error) {
	if cfg.snapCache == nil {
		return nil, fmt.Errorf("fleet: the OTA rollout micro-reboots devices into forked snapshot templates; it cannot run with NoSnapshot")
	}
	for _, fw := range firmwareShapes(*cfg) {
		if fw == FirmwareGo+otaAliasSuffix {
			continue // the update's own shape, appended by firmwareShapes
		}
		if fw != FirmwareGo {
			return nil, fmt.Errorf("fleet: the OTA rollout updates the %s firmware only; profile firmware %q cannot take it", FirmwareGo, fw)
		}
	}
	ctrl, err := ota.NewController(*cfg.Rollout, cfg.Devices, hw.DefaultHz)
	if err != nil {
		return nil, err
	}
	rt := &rolloutRuntime{cfg: cfg, pl: pl, schedule: schedule, ctrl: ctrl}

	// Canary membership is a seeded Fisher–Yates permutation on its own
	// rng stream: which devices update first is a property of the seed,
	// never of shard scheduling.
	r := newRNG(cfg.Seed, 6<<32)
	rt.order = make([]int, cfg.Devices)
	for i := range rt.order {
		rt.order[i] = i
	}
	for i := cfg.Devices - 1; i > 0; i-- {
		j := int(r.below(uint64(i + 1)))
		rt.order[i], rt.order[j] = rt.order[j], rt.order[i]
	}

	plan := *cfg.Rollout
	horizon := cfg.horizonCycles()
	for t := durationCycles(plan.StartAt); t < horizon; t += durationCycles(plan.CheckEvery) {
		rt.checkpoints = append(rt.checkpoints, t)
	}
	return rt, nil
}

// step runs one controller checkpoint: observe the updated cohort over
// every complete simulated second, let the state machine decide, and
// act — offer a ring the update, or roll every updated device back.
func (rt *rolloutRuntime) step(devices []*Device, now uint64) error {
	dec := rt.ctrl.Step(now, rt.observe(devices, now))
	if dec.Rollback {
		var idxs []int
		for _, d := range devices {
			if d.OnNewFirmware {
				idxs = append(idxs, d.Index)
			}
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			d := devices[i]
			rt.notify(d, "rollback")
			if err := rt.swapDevice(d, false); err != nil {
				return err
			}
			d.OnNewFirmware = false
			d.RolledBack = true
		}
		return nil
	}
	if dec.OfferRing >= 0 {
		targets := append([]int(nil), rt.order[dec.OfferFrom:dec.OfferTo]...)
		sort.Ints(targets)
		for _, i := range targets {
			d := devices[i]
			rt.notify(d, "update")
			if err := rt.swapDevice(d, true); err != nil {
				return err
			}
			d.OnNewFirmware = true
			d.UpdatedAtCycle = now
		}
	}
	return nil
}

// observe digests the updated cohort's health into the controller's
// input: per complete second, cohort size, how many published, and
// flight-recorder crash reports raised while on the new firmware.
// Everything is simulated-clock data read at a barrier, so the
// observation is identical in lockstep and parallel runs.
func (rt *rolloutRuntime) observe(devices []*Device, now uint64) ota.Observation {
	secNow := int(now / hw.DefaultHz)
	obs := ota.Observation{
		UpdatedCount:     make([]int, secNow),
		UpdatedAvailable: make([]int, secNow),
		Crashes:          make([]int, secNow),
	}
	for _, d := range devices {
		if !d.OnNewFirmware {
			continue
		}
		offSec := int(d.UpdatedAtCycle / hw.DefaultHz)
		for s := offSec; s < secNow; s++ {
			obs.UpdatedCount[s]++
		}
		for s, n := range d.Stats.PublishSeconds {
			if n > 0 && s >= offSec && s < secNow {
				obs.UpdatedAvailable[s]++
			}
		}
		for _, rep := range d.crashReports() {
			if rep.Cycle < d.UpdatedAtCycle {
				continue // pre-update history (e.g. an earlier fault campaign)
			}
			if s := int(rep.Cycle / hw.DefaultHz); s < secNow {
				obs.Crashes[s]++
			}
		}
	}
	return obs
}

// notify publishes the update offer (or rollback notice) to the
// device's own MQTT topic through its home shard. A device without a
// live session — still in bring-up, partitioned — misses the push; the
// swap happens regardless, which is exactly how a real staged rollout
// treats its offer channel as best-effort alongside the device poll.
func (rt *rolloutRuntime) notify(d *Device, kind string) {
	payload := []byte("ota:" + kind)
	if rt.pl.DeliverToDevice(d.Index, d.IP, d.Topic, payload, 0) {
		rt.offersDelivered++
	} else {
		rt.offersMissed++
	}
}

// swapDevice micro-reboots a device into the other firmware image:
// retire the running incarnation's instruments, fork the replacement
// from its snapshot template, jump the fresh core to the retirement
// cycle (one absolute clock domain per device), and rewire the world,
// cloud attachment, fault windows, and instruments.
func (rt *rolloutRuntime) swapDevice(d *Device, toNew bool) error {
	cfg, pl := rt.cfg, rt.pl
	retire := d.Sys.Cycles()
	d.retireIncarnation()

	img, stack := d.buildImage(toNew)
	alias := d.Profile.Firmware
	if toNew {
		alias += otaAliasSuffix
	}
	t0 := time.Now()
	sys, forked, err := cfg.snapCache.Boot(alias, img, core.BootOptions{SkipReport: true})
	d.bootWall += time.Since(t0)
	if err != nil {
		return fmt.Errorf("fleet: device %d: swap to %s: %w", d.Index, alias, err)
	}
	_ = forked // host-path detail; d.Forked keeps the boot-time value

	// The forked System's clock starts at zero with no pending events,
	// so SkipTo is a pure jump: the replacement incarnation continues
	// the device's absolute cycle timeline.
	sys.Board.Core.SkipTo(retire)

	d.Sys = sys
	d.Stack = stack
	stack.Attach(sys.Kernel)
	if d.updReb != nil {
		d.updReb.Kernel = sys.Kernel
	}

	d.World = netsim.NewWorld(sys.Board.Core, sys.Board.Net, d.IP)
	d.World.SetConcurrent(true)
	if d.Obs != nil {
		d.World.SetObserver(d.Obs)
	}
	if cfg.DropRate > 0 || cfg.JitterCycles > 0 {
		// A fresh fault stream per incarnation (streams 8+ are reserved
		// for them); the retired incarnation's stream position is not
		// replayable, but a fixed derivation is just as deterministic.
		d.World.SetLinkFaults(cfg.DropRate, cfg.JitterCycles,
			newRNG(cfg.Seed, uint64(d.Index)+uint64(7+d.incarnation+1)<<32).next())
	}
	attachCloud(d.World, pl, d.IP)
	if d.Partitioned {
		// The partition window is absolute cycles; re-arming it on the
		// new World keeps any still-open blackhole in force.
		from, until := cfg.partitionWindow()
		d.World.SetPartition(pl.HomeIP(d.Index), from, until)
	}
	if d.SkewMillis != 0 {
		d.World.SetNTPSkew(d.SkewMillis)
	}

	// Instruments arm after the jump, so their base is the swap cycle
	// and the per-incarnation attribution invariant (base + attributed
	// == clock) keeps holding exactly.
	d.Tel = sys.EnableTelemetry(cfg.TraceCapacity)
	if cfg.Prof {
		d.Prof = sys.EnableProfiler()
	}
	d.Rec = nil
	if cfg.FlightRecorder > 0 {
		d.Rec = sys.EnableFlightRecorder(cfg.FlightRecorder)
	}
	if at := cfg.pingOfDeathCycles(); at > retire {
		spoof := pl.HomeIP(d.Index)
		sys.Board.Core.At(at, func() {
			d.World.InjectRaw(d.World.PingOfDeath(spoof))
		})
	}
	d.installCloudSchedule(pl, rt.schedule, retire)

	d.arrival = 0 // the replacement brings the network up immediately
	d.incarnation++
	return nil
}

// retireIncarnation folds the running incarnation's instruments into
// the device's lifetime accumulators and shuts its System down. The
// telemetry/profiler invariants are checked here exactly as summarize
// checks the final incarnation.
func (d *Device) retireIncarnation() {
	snap := d.Tel.Snapshot()
	if snap.BaseCycles+snap.AttributedCycles != d.Sys.Cycles() {
		d.retiredBroken = true
	}
	d.retiredSnaps = append(d.retiredSnaps, snap)
	if d.cfg.Prof {
		pp := d.Prof.Snapshot()
		if pp == nil || pp.BaseCycles+pp.TotalCycles != d.Sys.Cycles() ||
			pp.SelfSum() != pp.TotalCycles {
			d.retiredBroken = true
		}
		d.retiredProfs = append(d.retiredProfs, pp)
	}
	if d.Rec != nil {
		d.retiredRecs = append(d.retiredRecs, d.Rec)
		d.Rec = nil
	}
	d.retiredFrom += d.World.FramesFromDevice
	d.retiredTo += d.World.FramesToDevice
	d.retiredDrops += d.World.Dropped
	if d.Stack != nil {
		d.retiredReboots += d.Stack.TCPIPRebooter.Reboots
	}
	if d.updReb != nil {
		d.retiredReboots += d.updReb.Reboots
		d.updReb = nil
	}
	d.Sys.Shutdown()
}

// rolloutStatus assembles the Summary's rollout block: the controller's
// state machine plus the fleet-side facts it cannot know.
func (rt *rolloutRuntime) rolloutStatus(devices []*Device) *ota.Status {
	st := rt.ctrl.Status()
	st.NewFirmware = FirmwareGo + otaAliasSuffix
	st.OffersDelivered = rt.offersDelivered
	st.OffersMissed = rt.offersMissed
	for _, d := range devices {
		if d.OnNewFirmware {
			st.OnNew++
		} else {
			st.OnOld++
		}
		if d.RolledBack {
			st.RolledBack++
		}
	}
	return &st
}
