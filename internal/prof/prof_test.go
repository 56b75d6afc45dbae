package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// newProf arms a profiler on a real machine clock standing at cycle base;
// the tests advance the clock between transitions, as the machine would.
// The returned install makes a node the current frame, as the switcher
// does at every transition.
func newProf(base uint64) (*Profiler, *hw.Clock, func(*Node)) {
	clk := hw.NewClock(hw.DefaultHz)
	clk.Advance(base)
	return New(clk), clk, func(n *Node) { clk.SetFrameAccount(n.Cell()) }
}

// The exactness invariant: every cycle the clock advances between New and
// Snapshot lands in exactly one frame, whatever the transition sequence.
func TestSumToClockInvariant(t *testing.T) {
	p, clk, install := newProf(1000)
	app := p.Root("app")
	install(p.Root(telemetry.DomainSwitcher))
	clk.Advance(10) // switcher
	install(app.Enter(telemetry.DomainSwitcher))
	clk.Advance(5) // call overlay
	a := app.Enter("comp.a")
	install(a)
	clk.Advance(100) // in a
	install(a.Enter(telemetry.DomainSwitcher))
	clk.Advance(7) // nested call overlay
	install(a.Enter("comp.b"))
	clk.Advance(50) // in b
	install(a.Enter(telemetry.DomainSwitcher))
	clk.Advance(3) // return zeroing
	install(a)
	clk.Advance(25) // back in a
	install(p.Root(telemetry.DomainIdle))
	clk.Advance(40) // idle

	pr := p.Snapshot()
	if pr.BaseCycles != 1000 {
		t.Errorf("base = %d, want 1000", pr.BaseCycles)
	}
	if want := uint64(10 + 5 + 100 + 7 + 50 + 3 + 25 + 40); pr.TotalCycles != want {
		t.Errorf("total = %d, want %d", pr.TotalCycles, want)
	}
	if pr.SelfSum() != pr.TotalCycles {
		t.Errorf("frame self sum %d != total %d", pr.SelfSum(), pr.TotalCycles)
	}

	self := map[string]uint64{}
	calls := map[string]uint64{}
	for _, f := range pr.Frames {
		self[f.Stack] = f.Self
		calls[f.Stack] = f.Calls
	}
	for stack, want := range map[string]uint64{
		"app;comp.a":                             125,
		"app;comp.a;comp.b":                      50,
		"app;comp.a;" + telemetry.DomainSwitcher: 10, // nested overlay + return zeroing
		"app;" + telemetry.DomainSwitcher:        5,
		telemetry.DomainSwitcher:                 10,
		telemetry.DomainIdle:                     40,
	} {
		if self[stack] != want {
			t.Errorf("self[%q] = %d, want %d", stack, self[stack], want)
		}
	}
	// Enter counts every entry; root-level frames count none.
	for stack, want := range map[string]uint64{
		"app;comp.a":                             1,
		"app;comp.a;comp.b":                      1,
		"app;comp.a;" + telemetry.DomainSwitcher: 2,
		"app":                                    0,
		telemetry.DomainIdle:                     0,
	} {
		if calls[stack] != want {
			t.Errorf("calls[%q] = %d, want %d", stack, calls[stack], want)
		}
	}
}

// Every hook the switcher calls is nil-safe and allocation-free on the
// nil receiver: the zero-cost-when-off contract for its hot path.
func TestNilProfilerZeroAlloc(t *testing.T) {
	var p *Profiler
	allocs := testing.AllocsPerRun(100, func() {
		if p.Root("t").Enter("x").Enter("y").Cell() != nil {
			t.Fatal("nil profiler handed out a cell")
		}
		_ = p.Snapshot()
	})
	if allocs != 0 {
		t.Errorf("nil profiler allocated %.1f per run, want 0", allocs)
	}
}

// Merge sums frames and is order-independent — the lockstep ≡ parallel
// byte-identity root.
func TestMergeDeterministic(t *testing.T) {
	mk := func(seed uint64) *Profile {
		p, clk, install := newProf(seed)
		app := p.Root("app")
		a := app.Enter("comp.a")
		install(a)
		clk.Advance(10 * (seed + 1))
		install(a.Enter("comp.b"))
		clk.Advance(seed)
		install(app)
		return p.Snapshot()
	}
	a, b, c := mk(1), mk(2), mk(3)
	m1 := Merge(a, b, c)
	m2 := Merge(c, a, b)
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("merge order changed the profile:\n%s\n%s", j1, j2)
	}
	if m1.TotalCycles != a.TotalCycles+b.TotalCycles+c.TotalCycles {
		t.Errorf("merged total %d != sum of inputs", m1.TotalCycles)
	}
	if m1.SelfSum() != m1.TotalCycles {
		t.Errorf("merged self sum %d != total %d", m1.SelfSum(), m1.TotalCycles)
	}
	if got := Merge(nil, a, nil).TotalCycles; got != a.TotalCycles {
		t.Errorf("nil inputs not skipped: %d", got)
	}
}

// The folded export carries every non-zero frame, sorted, and the JSON
// round-trips.
func TestExports(t *testing.T) {
	p, clk, install := newProf(0)
	app := p.Root("app")
	a := app.Enter("comp.a")
	install(a)
	clk.Advance(70)
	install(a.Enter("comp.b"))
	clk.Advance(30)
	install(app)
	pr := p.Snapshot()

	var folded bytes.Buffer
	if err := pr.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "app;comp.a 70\napp;comp.a;comp.b 30\n"
	if folded.String() != want {
		t.Errorf("folded:\n%q\nwant:\n%q", folded.String(), want)
	}

	var js bytes.Buffer
	if err := pr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(&js)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(pr)
	j2, _ := json.Marshal(back)
	if !bytes.Equal(j1, j2) {
		t.Error("JSON round-trip changed the profile")
	}

	var chrome bytes.Buffer
	if err := pr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// app, comp.a, comp.b — one B and one E each.
	if len(parsed.TraceEvents) != 6 {
		t.Errorf("chrome trace has %d events, want 6", len(parsed.TraceEvents))
	}

	top := pr.Top(2)
	if len(top) != 2 || top[0].Stack != "app;comp.a" || top[0].Inclusive != 100 {
		t.Errorf("top: %+v", top)
	}
	var table bytes.Buffer
	if err := pr.WriteTop(&table, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "comp.a") {
		t.Errorf("top table missing frames:\n%s", table.String())
	}
}

// Diff flags growth past the threshold, ignores noise below minCycles,
// and marks new frames with an infinite ratio.
func TestDiff(t *testing.T) {
	old := &Profile{Frames: []Frame{
		{Stack: "a", Self: 1000},
		{Stack: "b", Self: 1000},
		{Stack: "tiny", Self: 10},
	}}
	cur := &Profile{Frames: []Frame{
		{Stack: "a", Self: 1500},   // 1.5x: regression at 0.2 threshold
		{Stack: "b", Self: 1100},   // 1.1x: within threshold
		{Stack: "tiny", Self: 90},  // 9x but under minCycles
		{Stack: "new", Self: 5000}, // absent from old
	}}
	regs := Diff(old, cur, 0.2, 100)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Stack != "new" || !math.IsInf(regs[0].Ratio, 1) {
		t.Errorf("worst regression should be the new frame: %+v", regs[0])
	}
	if regs[1].Stack != "a" || regs[1].Ratio != 1.5 {
		t.Errorf("expected a@1.5x: %+v", regs[1])
	}
	if got := Diff(old, old, 0.0, 1); len(got) != 0 {
		t.Errorf("self-diff reported regressions: %+v", got)
	}
}

// HostProfile aggregates per-worker phase times with sum and max.
func TestHostProfile(t *testing.T) {
	h := NewHostProfile(4)
	h.Add("step", 2*time.Second, 10)
	h.Add("step", 3*time.Second, 12)
	h.Add("boot", 1*time.Second, 4)
	h.Finish()
	if len(h.Phases) != 2 || h.Phases[0].Name != "boot" {
		t.Fatalf("phases: %+v", h.Phases)
	}
	st := h.Phase("step")
	if st.WallSec != 5 || st.MaxSec != 3 || st.Calls != 22 {
		t.Errorf("step phase: %+v", st)
	}
	if h.Phase("absent").Name != "" {
		t.Error("absent phase not zero")
	}
	var tbl bytes.Buffer
	if err := h.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "step") {
		t.Errorf("table missing step:\n%s", tbl.String())
	}
	// Nil-safety mirrors the sim-side contract.
	var nilH *HostProfile
	nilH.Add("x", time.Second, 1)
	nilH.Finish()
	_ = nilH.Phase("x")
}
