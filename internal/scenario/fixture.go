package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/ota"
)

// Fixture is a pre/post state check attached to a scenario. Check runs
// on the finished fleet and returns nil when the invariant holds. A
// fixture that needs an instrument fails when the scenario's line does
// not arm it.
type Fixture interface {
	Name() string
	Check(*fleet.Result) error
}

// CheckFunc adapts a function to the Fixture interface.
type CheckFunc struct {
	Label string
	Fn    func(*fleet.Result) error
}

func (c CheckFunc) Name() string                  { return c.Label }
func (c CheckFunc) Check(res *fleet.Result) error { return c.Fn(res) }

// CycleSumExact asserts the telemetry invariant: per-compartment cycle
// attribution sums exactly to each device's elapsed cycles, fleet-wide.
// Faults must not leak cycles out of the accounting.
type CycleSumExact struct{}

func (CycleSumExact) Name() string { return "cycle-sum-exact" }

func (CycleSumExact) Check(res *fleet.Result) error {
	if !res.Summary.CycleSumExact {
		return fmt.Errorf("per-compartment cycles do not sum to elapsed cycles")
	}
	return nil
}

// NoDeviceErrors asserts every device finished its run: no device
// errors and no setup failures.
type NoDeviceErrors struct{}

func (NoDeviceErrors) Name() string { return "no-device-errors" }

func (NoDeviceErrors) Check(res *fleet.Result) error {
	s := res.Summary
	if s.DeviceErrors > 0 || s.SetupFailures > 0 {
		return fmt.Errorf("%d device errors, %d setup failures", s.DeviceErrors, s.SetupFailures)
	}
	return nil
}

// LeakFree is the flight-recorder leak check: after the run, no device
// may hold more than MaxLive live heap allocations owned by the Owner
// compartment. A quota storm that forgot a Free, or an app accreting
// state per reconnect, trips it. The scenario's line must arm the
// flight recorder (-flightrec).
type LeakFree struct {
	Owner   string // allocating compartment, e.g. "fleetapp"
	MaxLive int    // steady-state live allocations allowed per device
}

func (LeakFree) Name() string { return "leak-free" }

func (f LeakFree) Check(res *fleet.Result) error {
	if f.Owner == "" {
		return fmt.Errorf("empty owner compartment")
	}
	for _, d := range res.Devices {
		if d.Rec == nil {
			return fmt.Errorf("device %d has no flight recorder", d.Index)
		}
		live := 0
		for _, a := range d.Rec.LiveAllocations() {
			if a.Owner == f.Owner {
				live++
			}
		}
		if live > f.MaxLive {
			return fmt.Errorf("device %d: %d live allocations owned by %q (max %d)",
				d.Index, live, f.Owner, f.MaxLive)
		}
	}
	return nil
}

// FaultObserved asserts the scheduled fault actually fired: a fault
// campaign whose fault silently never arms would otherwise pass its
// SLOs vacuously.
type FaultObserved struct {
	// Fault selects the summary evidence to demand: "pod", "failover",
	// "partition", "skew", or "quota-storm".
	Fault string
}

func (f FaultObserved) Name() string { return "fault-observed:" + f.Fault }

func (f FaultObserved) Check(res *fleet.Result) error {
	s := res.Summary
	switch f.Fault {
	case "pod":
		if s.CrashReports == 0 || s.Reboots == 0 {
			return fmt.Errorf("no crash reports (%d) or micro-reboots (%d) recorded", s.CrashReports, s.Reboots)
		}
	case "failover":
		if s.FailoverKicks == 0 {
			return fmt.Errorf("no failover kicks recorded")
		}
	case "partition":
		if s.Partition == nil || s.Partition.Devices == 0 {
			return fmt.Errorf("no partitioned devices recorded")
		}
	case "skew":
		if s.SkewedDevices == 0 {
			return fmt.Errorf("no skewed devices recorded")
		}
	case "quota-storm":
		if s.QuotaStormDenied == 0 {
			return fmt.Errorf("no quota refusals recorded — the storm never hit the quota")
		}
		if s.QuotaStormPublishes == 0 {
			return fmt.Errorf("no publishes under quota exhaustion — isolation evidence missing")
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Fault)
	}
	return nil
}

// ProfileCaptured asserts the cycle-exact compartment profile, which
// the scenario's line arms with -prof, is well-formed: present,
// non-empty, and internally exact (per-frame self cycles sum to the
// attributed total). With it, every cell's summary carries a
// folded-stack profile whose sum-to-clock invariant is judged per seed.
type ProfileCaptured struct{}

func (ProfileCaptured) Name() string { return "profile-captured" }

func (ProfileCaptured) Check(res *fleet.Result) error {
	p := res.Summary.Profile
	if p == nil {
		return fmt.Errorf("no profile in the summary — profiler never armed")
	}
	if p.TotalCycles == 0 || len(p.Frames) == 0 {
		return fmt.Errorf("profile is empty: %d frames, %d cycles", len(p.Frames), p.TotalCycles)
	}
	if got := p.SelfSum(); got != p.TotalCycles {
		return fmt.Errorf("profile self-cycle sum %d != attributed total %d", got, p.TotalCycles)
	}
	return nil
}

// ForkedEqualsCold asserts snapshot/fork boot is invisible to the
// workload: the run must actually have forked devices from a template,
// and re-running the same config with NoSnapshot (every device through
// the full loader) must produce a byte-identical JSON summary. The
// finished run's Result.Config carries the fully-defaulted
// configuration, so the cold re-run is exactly the same fleet minus the
// templates.
type ForkedEqualsCold struct{}

func (ForkedEqualsCold) Name() string { return "forked-equals-cold" }

func (ForkedEqualsCold) Check(res *fleet.Result) error {
	st := res.Snapshot
	if st == nil {
		return fmt.Errorf("snapshot boot disabled — nothing forked")
	}
	if st.Forks == 0 {
		return fmt.Errorf("no device forked from the %d captured shapes", len(st.Shapes))
	}
	cold := res.Config
	cold.NoSnapshot = true
	coldRes, err := fleet.Run(cold)
	if err != nil {
		return fmt.Errorf("cold-boot re-run: %w", err)
	}
	j1, err := json.Marshal(res.Summary)
	if err != nil {
		return fmt.Errorf("marshal forked summary: %w", err)
	}
	j2, err := json.Marshal(coldRes.Summary)
	if err != nil {
		return fmt.Errorf("marshal cold summary: %w", err)
	}
	if !bytes.Equal(j1, j2) {
		return fmt.Errorf("forked summary diverges from cold boot:\nforked: %s\ncold:   %s", j1, j2)
	}
	return nil
}

// RolloutComplete asserts the staged OTA rollout ran to full fleet
// coverage: terminal state complete, every device on the new firmware,
// every ring advanced by a passing health verdict — and the whole
// updated cohort forked from the new shape's one launch capture.
type RolloutComplete struct{}

func (RolloutComplete) Name() string { return "rollout-complete" }

func (RolloutComplete) Check(res *fleet.Result) error {
	ro := res.Summary.Rollout
	if ro == nil {
		return fmt.Errorf("no rollout in the summary — the plan never armed")
	}
	if ro.Terminal != ota.StateComplete {
		return fmt.Errorf("rollout terminal state %q, want %q", ro.Terminal, ota.StateComplete)
	}
	if ro.OnNew != res.Summary.Devices || ro.OnOld != 0 {
		return fmt.Errorf("final firmware split %d new / %d old, want the whole fleet of %d updated",
			ro.OnNew, ro.OnOld, res.Summary.Devices)
	}
	for i, ring := range ro.Rings {
		if ring.OfferedAtCycle == 0 || ring.AdvancedAtCycle == 0 {
			return fmt.Errorf("ring %d (%g%%) missing offer/advance timestamps", i, ring.Percent)
		}
		if ring.Verdict == nil || !ring.Verdict.Pass {
			return fmt.Errorf("ring %d (%g%%) advanced without a passing health verdict", i, ring.Percent)
		}
	}
	st := res.Snapshot
	if st == nil {
		return fmt.Errorf("no snapshot stats — swaps did not fork from templates")
	}
	for _, sh := range st.Shapes {
		if sh.Firmware == ro.NewFirmware {
			if sh.Forks != ro.OnNew {
				return fmt.Errorf("new firmware shape %q forked %d incarnations for %d updated devices",
					sh.Firmware, sh.Forks, ro.OnNew)
			}
			return nil
		}
	}
	return fmt.Errorf("new firmware shape %q was never captured", ro.NewFirmware)
}

// RolledBack asserts the crash-triggered auto-rollback fired and fully
// recovered the fleet: terminal state rolled_back, zero devices left on
// the new firmware, cohort crashes above the threshold, and the
// micro-reboots that carried the swaps recorded.
type RolledBack struct{}

func (RolledBack) Name() string { return "rolled-back" }

func (RolledBack) Check(res *fleet.Result) error {
	ro := res.Summary.Rollout
	if ro == nil {
		return fmt.Errorf("no rollout in the summary — the plan never armed")
	}
	if ro.Terminal != ota.StateRolledBack {
		return fmt.Errorf("rollout terminal state %q, want %q", ro.Terminal, ota.StateRolledBack)
	}
	if ro.OnNew != 0 || ro.OnOld != res.Summary.Devices {
		return fmt.Errorf("final firmware split %d new / %d old, want 0/%d — rollback left devices updated",
			ro.OnNew, ro.OnOld, res.Summary.Devices)
	}
	if ro.RolledBack == 0 || ro.RollbackAtCycle == 0 {
		return fmt.Errorf("rollback accounting empty: %d devices rolled back at cycle %d",
			ro.RolledBack, ro.RollbackAtCycle)
	}
	if res.Config.Rollout == nil || ro.CohortCrashes <= res.Config.Rollout.CrashThreshold {
		return fmt.Errorf("cohort crash count %d did not exceed the threshold %d — what triggered the rollback?",
			ro.CohortCrashes, ro.CrashThreshold)
	}
	if res.Summary.Reboots == 0 {
		return fmt.Errorf("no micro-reboots recorded — the poisoned agent never crashed or swaps were free")
	}
	return nil
}

// Churned asserts reconnect churn actually reconnected devices.
type Churned struct{}

func (Churned) Name() string { return "churned" }

func (Churned) Check(res *fleet.Result) error {
	if res.Summary.Reconnects == 0 {
		return fmt.Errorf("no reconnects recorded")
	}
	return nil
}
