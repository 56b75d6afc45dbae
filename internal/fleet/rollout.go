package fleet

import (
	"fmt"
	"sort"

	"github.com/cheriot-go/cheriot/internal/cloud"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/ota"
	"github.com/cheriot-go/cheriot/internal/prng"
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
	rt := &rolloutRuntime{pl: pl, schedule: schedule, ctrl: ctrl}

	// Canary membership is a seeded Fisher–Yates permutation on its own
	// rng stream: which devices update first is a property of the seed,
	// never of shard scheduling.
	r := prng.NewSplitMix(cfg.Seed, 6<<32)
	rt.order = make([]int, cfg.Devices)
	for i := range rt.order {
		rt.order[i] = i
	}
	for i := cfg.Devices - 1; i > 0; i-- {
		j := int(r.Below(uint64(i + 1)))
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

// swapDevice micro-reboots a device into the other firmware image: it
// closes the running incarnation and brings up the replacement at the
// retirement cycle, through the same path that booted the device.
func (rt *rolloutRuntime) swapDevice(d *Device, toNew bool) error {
	retire := d.Sys.Cycles()
	d.closeIncarnation()
	d.incarnation++
	d.arrival = 0 // the replacement brings the network up immediately
	if err := d.bringUp(rt.pl, rt.schedule, retire, toNew); err != nil {
		return fmt.Errorf("fleet: device %d: swap: %w", d.Index, err)
	}
	return nil
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
