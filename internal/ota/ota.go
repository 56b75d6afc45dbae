// Package ota implements a staged over-the-air firmware rollout
// controller: a new firmware image is offered to a seeded canary ring,
// the rollout widens ring-by-ring only while the already-updated
// cohort's per-sim-second health satisfies an SLO over a trailing bake
// window, and it auto-rolls-back the whole cohort when flight-recorder
// crash reports exceed a threshold.
//
// The controller is pure decision logic on the simulated clock: callers
// (the fleet) feed it per-second Observations of the updated cohort at
// deterministic checkpoint cycles and act on the returned Decisions —
// which device ranges to offer the update to, or to roll everything
// back. Because every input is derived from simulated state and every
// decision point is a cycle count, a rollout is byte-identical across
// lockstep and parallel fleet execution and across repeated runs at the
// same seed.
package ota

import (
	"fmt"
	"time"

	"github.com/cheriot-go/cheriot/internal/fleetobs"
)

// Plan describes a staged rollout. The zero value is not usable; apply
// WithDefaults (fleet does this when arming a rollout).
type Plan struct {
	// StartAt is the simulated time of the first canary offer.
	StartAt time.Duration
	// CheckEvery is the controller's checkpoint period: at every
	// checkpoint it re-observes the updated cohort and decides.
	CheckEvery time.Duration
	// Rings are cumulative fleet percentages, strictly ascending in
	// (0, 100]. A ring with a trailing 100 updates the whole fleet.
	Rings []float64
	// BringUp is how long an offered cohort gets to micro-reboot and
	// reconnect before its bake window starts being judged.
	BringUp time.Duration
	// Bake is the trailing health window each ring must satisfy before
	// the rollout widens to the next ring.
	Bake time.Duration
	// HealthSLO gates ring widening: availability rules (fleetobs
	// syntax, ';'-separated) evaluated over the updated cohort's health
	// series for the trailing Bake window. Only the availability metric
	// is allowed and the controller owns the window, so @Ns scopes are
	// rejected.
	HealthSLO string
	// CrashThreshold rolls the rollout back once cumulative
	// flight-recorder crash reports in the updated cohort exceed it.
	CrashThreshold int
	// Poisoned marks the new image as deliberately crashy (the update
	// agent traps on every poke). The controller ignores it — the fleet
	// uses it when building the new firmware — but it lives on the Plan
	// so one flag line describes the whole rollout.
	Poisoned bool
}

// WithDefaults fills unset fields with the standard rollout shape.
func (p Plan) WithDefaults() Plan {
	if p.StartAt <= 0 {
		p.StartAt = 14 * time.Second
	}
	if p.CheckEvery <= 0 {
		p.CheckEvery = time.Second
	}
	if len(p.Rings) == 0 {
		p.Rings = []float64{1, 10, 50, 100}
	}
	if p.BringUp <= 0 {
		p.BringUp = 12 * time.Second
	}
	if p.Bake <= 0 {
		p.Bake = 3 * time.Second
	}
	if p.HealthSLO == "" {
		p.HealthSLO = "availability>=0.5"
	}
	if p.CrashThreshold <= 0 {
		p.CrashThreshold = 2
	}
	return p
}

// Observation is what the controller sees of the updated cohort at a
// checkpoint: one entry per *complete* simulated second from second 0.
// Seconds before any device was updated have UpdatedCount zero.
type Observation struct {
	// UpdatedCount[s] is how many devices were on the new firmware
	// during second s (offered at or before the second's start).
	UpdatedCount []int
	// UpdatedAvailable[s] is how many of those published during s.
	UpdatedAvailable []int
	// Crashes[s] is flight-recorder crash reports raised during s by
	// devices while on the new firmware.
	Crashes []int
}

// Decision is what the caller must do after a Step.
type Decision struct {
	// OfferRing, when >= 0, is the ring index to offer now;
	// devices rolloutOrder[OfferFrom:OfferTo] are the new targets.
	OfferRing int
	OfferFrom int
	OfferTo   int
	// Rollback orders every updated device back onto the old firmware.
	Rollback bool
}

// Rollout states.
const (
	StateWaiting    = "waiting"
	StateBaking     = "baking"
	StateComplete   = "complete"
	StateRolledBack = "rolled_back"
)

// RingStatus is the per-ring slice of the rollout state machine.
type RingStatus struct {
	Ring    int     `json:"ring"`
	Percent float64 `json:"percent"`
	// Devices is the cumulative device count through this ring.
	Devices int `json:"devices"`
	// OfferedAtCycle is when the ring's devices were offered the
	// update (rings that add no devices inherit the previous ring's).
	OfferedAtCycle uint64 `json:"offered_at_cycle,omitempty"`
	// AdvancedAtCycle is when the ring's bake gate passed.
	AdvancedAtCycle uint64 `json:"advanced_at_cycle,omitempty"`
	// Verdict is the latest bake-window SLO evaluation for the ring.
	Verdict *fleetobs.Verdict `json:"verdict,omitempty"`
}

// Status is the externally visible rollout state; the fleet embeds it
// in the run summary. Fields the controller cannot know (final firmware
// split, offer delivery counts) are filled by the fleet.
type Status struct {
	State    string `json:"state"`
	Terminal string `json:"terminal,omitempty"`
	// NewFirmware is the template alias of the updated image.
	NewFirmware string       `json:"new_firmware,omitempty"`
	Rings       []RingStatus `json:"rings"`
	// Updated is how many devices were offered the new firmware.
	Updated int `json:"updated"`
	// RolledBack is how many updated devices were rolled back.
	RolledBack int `json:"rolled_back,omitempty"`
	// OnNew / OnOld is the final firmware split across the fleet.
	OnNew int `json:"on_new"`
	OnOld int `json:"on_old"`
	// CohortCrashes is cumulative crash reports observed in the
	// updated cohort; crossing CrashThreshold triggers rollback.
	CohortCrashes  int `json:"cohort_crashes"`
	CrashThreshold int `json:"crash_threshold"`
	// OffersDelivered / OffersMissed count the MQTT update offers the
	// cloud pushed to device control topics (missed: no live session).
	OffersDelivered int    `json:"offers_delivered"`
	OffersMissed    int    `json:"offers_missed"`
	CompleteAtCycle uint64 `json:"complete_at_cycle,omitempty"`
	RollbackAtCycle uint64 `json:"rollback_at_cycle,omitempty"`
}

// Controller runs the ring/bake/rollback state machine for one fleet.
// It is not safe for concurrent use; the fleet steps it single-threaded
// at checkpoint barriers.
type Controller struct {
	plan    Plan
	hz      uint64
	devices int
	rules   []fleetobs.Rule
	// ringTo[i] is the cumulative device count through ring i.
	ringTo []int
	// offered is the ring index last offered; -1 before the first.
	offered int
	status  Status
}

// NewController validates the plan against the fleet size and returns a
// controller positioned before the first offer.
func NewController(plan Plan, devices int, hz uint64) (*Controller, error) {
	plan = plan.WithDefaults()
	if devices <= 0 {
		return nil, fmt.Errorf("ota: rollout needs at least one device, have %d", devices)
	}
	if hz == 0 {
		return nil, fmt.Errorf("ota: rollout needs a clock rate")
	}
	// The controller reads plan durations at millisecond resolution
	// (cycles). A shorter period is finer than it can judge, and below a
	// microsecond it steps the fleet's checkpoint loop by 0 cycles.
	if plan.CheckEvery < time.Millisecond {
		return nil, fmt.Errorf("ota: checkpoint period %v is under the controller's 1ms resolution", plan.CheckEvery)
	}
	prev := 0.0
	for i, pct := range plan.Rings {
		if pct <= prev || pct > 100 {
			return nil, fmt.Errorf("ota: rings must be strictly ascending percentages in (0,100], ring %d is %g after %g",
				i, pct, prev)
		}
		prev = pct
	}
	rules, err := fleetobs.ParseRules(plan.HealthSLO)
	if err != nil {
		return nil, fmt.Errorf("ota: health SLO: %w", err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("ota: health SLO %q has no rules", plan.HealthSLO)
	}
	for _, r := range rules {
		if r.Metric != "availability" {
			return nil, fmt.Errorf("ota: health SLO rule %q: only the availability metric gates a ring (crashes are the rollback threshold)", r)
		}
		if r.FromSecond != 0 {
			return nil, fmt.Errorf("ota: health SLO rule %q: the controller owns the bake window; drop the @Ns scope", r)
		}
	}
	c := &Controller{plan: plan, hz: hz, devices: devices, rules: rules, offered: -1}
	c.status.State = StateWaiting
	c.status.CrashThreshold = plan.CrashThreshold
	for i, pct := range plan.Rings {
		n := (devices*int(pct*100) + 9999) / 10000 // ceil(pct% of devices), pct in hundredths
		if n < 1 {
			n = 1
		}
		if n > devices {
			n = devices
		}
		if len(c.ringTo) > 0 && n < c.ringTo[len(c.ringTo)-1] {
			n = c.ringTo[len(c.ringTo)-1]
		}
		c.ringTo = append(c.ringTo, n)
		c.status.Rings = append(c.status.Rings, RingStatus{Ring: i, Percent: pct, Devices: n})
	}
	return c, nil
}

// Status returns a copy of the rollout state (rings included).
func (c *Controller) Status() Status {
	st := c.status
	st.Rings = append([]RingStatus(nil), c.status.Rings...)
	return st
}

// cycles converts a plan duration to cycles. Plans are second-scale, so
// millisecond precision is plenty.
func (c *Controller) cycles(d time.Duration) uint64 {
	return uint64(d.Milliseconds()) * (c.hz / 1000)
}

// bakeSeconds is the bake window in whole seconds, at least 1.
func (c *Controller) bakeSeconds() int {
	s := int((c.cycles(c.plan.Bake) + c.hz - 1) / c.hz)
	if s < 1 {
		s = 1
	}
	return s
}

// health materializes the cohort observation as a fleetobs health
// series so ring gates reuse the exact SLO evaluation the fleet uses.
func health(obs Observation) []fleetobs.HealthPoint {
	pts := make([]fleetobs.HealthPoint, 0, len(obs.UpdatedCount))
	for s, n := range obs.UpdatedCount {
		if n == 0 {
			continue
		}
		avail := 0
		if s < len(obs.UpdatedAvailable) {
			avail = obs.UpdatedAvailable[s]
		}
		pts = append(pts, fleetobs.HealthPoint{
			Second:       s,
			Available:    avail,
			Availability: float64(avail) / float64(n),
		})
	}
	return pts
}

// offer records ring as offered at now and returns the caller's share.
// A ring that adds no devices (small fleets collapse adjacent
// percentages) inherits the previous ring's offer cycle so its gate is
// already satisfied at the next checkpoint.
func (c *Controller) offer(ring int, now uint64) Decision {
	from := 0
	if ring > 0 {
		from = c.ringTo[ring-1]
	}
	to := c.ringTo[ring]
	at := now
	if to == from && ring > 0 {
		at = c.status.Rings[ring-1].OfferedAtCycle
	}
	c.offered = ring
	c.status.Rings[ring].OfferedAtCycle = at
	c.status.Updated = to
	c.status.State = StateBaking
	return Decision{OfferRing: ring, OfferFrom: from, OfferTo: to}
}

// Step advances the state machine at a checkpoint. nowCycle is the
// barrier cycle (every device has simulated at least this far); obs
// covers every complete second before it.
func (c *Controller) Step(nowCycle uint64, obs Observation) Decision {
	none := Decision{OfferRing: -1}
	if c.status.Terminal != "" {
		return none
	}

	crashes := 0
	for _, n := range obs.Crashes {
		crashes += n
	}
	c.status.CohortCrashes = crashes
	if c.offered >= 0 && crashes > c.plan.CrashThreshold {
		c.status.State = StateRolledBack
		c.status.Terminal = StateRolledBack
		c.status.RollbackAtCycle = nowCycle
		return Decision{OfferRing: -1, Rollback: true}
	}

	if c.offered < 0 {
		if nowCycle < c.cycles(c.plan.StartAt) {
			return none
		}
		return c.offer(0, nowCycle)
	}

	// Bake gate for the current ring: the trailing Bake window of the
	// cohort health series must satisfy the plan's availability rules,
	// and the window must start after the ring's bring-up allowance so
	// rebooting devices aren't judged as outages.
	ring := &c.status.Rings[c.offered]
	gateAt := ring.OfferedAtCycle + c.cycles(c.plan.BringUp) + c.cycles(c.plan.Bake)
	if nowCycle < gateAt {
		return none
	}
	nowSec := int(nowCycle / c.hz)
	from := nowSec - c.bakeSeconds()
	if from < 0 {
		from = 0
	}
	rules := append([]fleetobs.Rule(nil), c.rules...)
	for i := range rules {
		rules[i].FromSecond = from
	}
	v := fleetobs.Evaluate(rules, &fleetobs.Report{Health: health(obs)})
	ring.Verdict = &v
	if !v.Pass {
		return none
	}
	ring.AdvancedAtCycle = nowCycle
	if c.offered == len(c.ringTo)-1 {
		c.status.State = StateComplete
		c.status.Terminal = StateComplete
		c.status.CompleteAtCycle = nowCycle
		return none
	}
	return c.offer(c.offered+1, nowCycle)
}
