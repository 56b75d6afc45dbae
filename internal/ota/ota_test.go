package ota_test

import (
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/ota"
)

// hz keeps the cycle math legible: 1 cycle = 1µs, 1s = 1e6 cycles.
const hz = 1_000_000

func sec(n int) uint64 { return uint64(n) * hz }

// plan is the test baseline: first offer at 5s, 2s bring-up, 2s bake,
// so a ring offered at T gates at T+4s.
func plan(rings ...float64) ota.Plan {
	return ota.Plan{
		StartAt:        5 * time.Second,
		CheckEvery:     time.Second,
		Rings:          rings,
		BringUp:        2 * time.Second,
		Bake:           2 * time.Second,
		HealthSLO:      "availability>=0.9",
		CrashThreshold: 1,
	}
}

// obs builds a cohort observation over secs complete seconds: the
// cohort has size cohort from second from on, and available of them
// publish each second.
func obs(secs, from, cohort, available int) ota.Observation {
	o := ota.Observation{
		UpdatedCount:     make([]int, secs),
		UpdatedAvailable: make([]int, secs),
		Crashes:          make([]int, secs),
	}
	for s := from; s < secs; s++ {
		o.UpdatedCount[s] = cohort
		o.UpdatedAvailable[s] = available
	}
	return o
}

func TestControllerValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ota.Plan)
		devices int
		want    string
	}{
		{"no devices", func(p *ota.Plan) {}, 0, "at least one device"},
		{"descending rings", func(p *ota.Plan) { p.Rings = []float64{50, 10} }, 8, "strictly ascending"},
		{"zero ring", func(p *ota.Plan) { p.Rings = []float64{0, 100} }, 8, "strictly ascending"},
		{"over 100", func(p *ota.Plan) { p.Rings = []float64{10, 120} }, 8, "strictly ascending"},
		{"bad slo", func(p *ota.Plan) { p.HealthSLO = "availability %% 3" }, 8, "health SLO"},
		{"non-availability metric", func(p *ota.Plan) { p.HealthSLO = "crashes<=0" }, 8, "only the availability metric"},
		{"scoped rule", func(p *ota.Plan) { p.HealthSLO = "availability>=0.9@12s" }, 8, "drop the @Ns scope"},
		{"sub-microsecond check", func(p *ota.Plan) { p.CheckEvery = 500 * time.Nanosecond }, 8, "1ms resolution"},
		{"sub-millisecond check", func(p *ota.Plan) { p.CheckEvery = 999 * time.Microsecond }, 8, "1ms resolution"},
	}
	for _, tc := range cases {
		p := plan(10, 100)
		tc.mutate(&p)
		if _, err := ota.NewController(p, tc.devices, hz); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRingSizesCeilAndClamp(t *testing.T) {
	c, err := ota.NewController(plan(1, 10, 50, 100), 10, hz)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 5, 10}
	for i, r := range c.Status().Rings {
		if r.Devices != want[i] {
			t.Errorf("ring %d: %d devices, want %d", i, r.Devices, want[i])
		}
	}
}

func TestHealthyRolloutAdvancesAndCompletes(t *testing.T) {
	c, err := ota.NewController(plan(10, 100), 10, hz)
	if err != nil {
		t.Fatal(err)
	}

	if d := c.Step(sec(4), obs(4, 0, 0, 0)); d.OfferRing != -1 || d.Rollback {
		t.Fatalf("before StartAt: %+v", d)
	}
	if st := c.Status(); st.State != ota.StateWaiting {
		t.Fatalf("state %q before StartAt", st.State)
	}

	d := c.Step(sec(5), obs(5, 0, 0, 0))
	if d.OfferRing != 0 || d.OfferFrom != 0 || d.OfferTo != 1 {
		t.Fatalf("first offer: %+v", d)
	}

	// Gate is offer(5s) + bring-up(2s) + bake(2s) = 9s; until then the
	// controller must hold even with a healthy cohort.
	for now := 6; now < 9; now++ {
		if d := c.Step(sec(now), obs(now, 5, 1, 1)); d.OfferRing != -1 || d.Rollback {
			t.Fatalf("at %ds (pre-gate): %+v", now, d)
		}
	}

	d = c.Step(sec(9), obs(9, 5, 1, 1))
	if d.OfferRing != 1 || d.OfferFrom != 1 || d.OfferTo != 10 {
		t.Fatalf("ring widening: %+v", d)
	}
	st := c.Status()
	if st.Rings[0].AdvancedAtCycle != sec(9) || st.Rings[0].Verdict == nil || !st.Rings[0].Verdict.Pass {
		t.Fatalf("ring 0 after advance: %+v", st.Rings[0])
	}

	for now := 10; now < 13; now++ {
		if d := c.Step(sec(now), obs(now, 5, 10, 10)); d.OfferRing != -1 {
			t.Fatalf("at %ds: %+v", now, d)
		}
	}
	if d := c.Step(sec(13), obs(13, 5, 10, 10)); d.OfferRing != -1 || d.Rollback {
		t.Fatalf("final gate: %+v", d)
	}
	st = c.Status()
	if st.Terminal != ota.StateComplete || st.CompleteAtCycle != sec(13) || st.Updated != 10 {
		t.Fatalf("terminal status: %+v", st)
	}
}

func TestGateHoldsUntilBakeWindowHealthy(t *testing.T) {
	c, err := ota.NewController(plan(100), 10, hz)
	if err != nil {
		t.Fatal(err)
	}
	c.Step(sec(5), obs(5, 0, 0, 0)) // offer

	// Cohort of 10 with only 5 publishing: availability 0.5 < 0.9.
	if d := c.Step(sec(9), obs(9, 5, 10, 5)); d.OfferRing != -1 || d.Rollback {
		t.Fatalf("unhealthy gate advanced: %+v", d)
	}
	st := c.Status()
	if st.Terminal != "" || st.Rings[0].Verdict == nil || st.Rings[0].Verdict.Pass {
		t.Fatalf("after failed gate: %+v", st)
	}

	// A later checkpoint with a healthy trailing window passes: the
	// window is trailing, so the old dip no longer counts.
	o := obs(12, 5, 10, 10)
	for s := 5; s < 9; s++ {
		o.UpdatedAvailable[s] = 5
	}
	if d := c.Step(sec(12), o); d.Rollback {
		t.Fatalf("healthy gate: %+v", d)
	}
	if st := c.Status(); st.Terminal != ota.StateComplete {
		t.Fatalf("terminal %q after recovery", st.Terminal)
	}
}

func TestCrashesAboveThresholdRollBack(t *testing.T) {
	c, err := ota.NewController(plan(10, 100), 10, hz)
	if err != nil {
		t.Fatal(err)
	}

	// Crashes before any offer cannot roll back a rollout that never
	// started.
	pre := obs(4, 0, 0, 0)
	pre.Crashes[3] = 5
	if d := c.Step(sec(4), pre); d.Rollback {
		t.Fatalf("rollback before first offer: %+v", d)
	}

	c.Step(sec(5), obs(5, 0, 0, 0)) // offer ring 0

	o := obs(7, 5, 1, 1)
	o.Crashes[6] = 2 // cumulative 2 > threshold 1
	d := c.Step(sec(7), o)
	if !d.Rollback {
		t.Fatalf("no rollback: %+v", d)
	}
	st := c.Status()
	if st.Terminal != ota.StateRolledBack || st.RollbackAtCycle != sec(7) || st.CohortCrashes != 2 {
		t.Fatalf("rollback status: %+v", st)
	}

	// Terminal: later checkpoints are inert.
	if d := c.Step(sec(8), o); d.OfferRing != -1 || d.Rollback {
		t.Fatalf("step after terminal: %+v", d)
	}
}

func TestEmptyRingInheritsOfferCycle(t *testing.T) {
	// 5 devices at 10% and 20% both ceil to 1 device: ring 1 adds
	// nobody, inherits ring 0's offer cycle, and gates immediately.
	c, err := ota.NewController(plan(10, 20, 100), 5, hz)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Step(sec(5), obs(5, 0, 0, 0)); d.OfferTo != 1 {
		t.Fatalf("ring 0 offer: %+v", d)
	}
	d := c.Step(sec(9), obs(9, 5, 1, 1))
	if d.OfferRing != 1 || d.OfferFrom != 1 || d.OfferTo != 1 {
		t.Fatalf("ring 1 offer: %+v", d)
	}
	st := c.Status()
	if st.Rings[1].OfferedAtCycle != st.Rings[0].OfferedAtCycle {
		t.Fatalf("empty ring did not inherit: ring0 %d, ring1 %d",
			st.Rings[0].OfferedAtCycle, st.Rings[1].OfferedAtCycle)
	}
	// Its gate is already aged, so the next checkpoint widens to 100%.
	d = c.Step(sec(10), obs(10, 5, 1, 1))
	if d.OfferRing != 2 || d.OfferFrom != 1 || d.OfferTo != 5 {
		t.Fatalf("ring 2 offer: %+v", d)
	}
}
