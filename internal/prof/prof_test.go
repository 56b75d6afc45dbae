package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// Merge sums trees node by node and is order-independent — the
// lockstep ≡ parallel byte-identity root.
func TestMergeDeterministic(t *testing.T) {
	mk := func(seed uint64) *Profiler {
		p, clk, install := newProf(seed)
		app := p.Root("app")
		a := app.Enter("comp.a")
		install(a)
		clk.Advance(10 * (seed + 1))
		install(a.Enter("comp.b"))
		clk.Advance(seed)
		install(app)
		return p
	}
	a, b, c := mk(1), mk(2), mk(3)
	m1 := Merge(a, b, c)
	m2 := Merge(c, a, b)
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("merge order changed the profile:\n%s\n%s", j1, j2)
	}
	total := a.Snapshot().TotalCycles + b.Snapshot().TotalCycles + c.Snapshot().TotalCycles
	if m1.TotalCycles != total {
		t.Errorf("merged total %d != sum of inputs %d", m1.TotalCycles, total)
	}
	if m1.SelfSum() != m1.TotalCycles {
		t.Errorf("merged self sum %d != total %d", m1.SelfSum(), m1.TotalCycles)
	}
	if got := Merge(nil, a, nil).TotalCycles; got != a.Snapshot().TotalCycles {
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

// randomProfiler drives a profiler the way the switcher does, entering
// frames under threads and pseudo-domains along random paths over a small
// label set, so several profilers share most of their nodes. Some
// profilers are closed, as the fleet closes each retired incarnation.
func randomProfiler(t *testing.T, rng *rand.Rand) *Profiler {
	p, clk, install := newProf(uint64(rng.Intn(1000)))
	roots := []string{"app", "net", telemetry.DomainSwitcher, telemetry.DomainSched, telemetry.DomainIdle}
	labels := []string{"a.x", "a.y", "b.x", "c.z", telemetry.DomainSwitcher}
	for i := 0; i < 40; i++ {
		n := p.Root(roots[rng.Intn(len(roots))])
		install(n)
		clk.Advance(uint64(rng.Intn(50)))
		for d := rng.Intn(5); d > 0; d-- {
			n = n.Enter(labels[rng.Intn(len(labels))])
			install(n)
			clk.Advance(uint64(rng.Intn(100)))
		}
	}
	if rng.Intn(2) == 0 && !p.Close() {
		t.Fatal("closed profiler is not exact")
	}
	return p
}

// oldSnapshot and oldMerge are the string-keyed reference the tree merge
// must match: every node rendered to its ';'-joined stack, then frames
// summed by stack and sorted.
func oldSnapshot(p *Profiler) *Profile {
	pr := &Profile{Hz: p.hz, BaseCycles: p.base, TotalCycles: p.cycles()}
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		for c := n.first; c != nil; c = c.next {
			stack := c.label
			if prefix != "" {
				stack = prefix + ";" + c.label
			}
			pr.Frames = append(pr.Frames, Frame{Stack: stack, Self: c.self, Calls: c.calls})
			walk(c, stack)
		}
	}
	walk(&p.root, "")
	sort.Slice(pr.Frames, func(i, j int) bool { return pr.Frames[i].Stack < pr.Frames[j].Stack })
	return pr
}

func oldMerge(profiles ...*Profile) *Profile {
	out := &Profile{}
	byStack := map[string]int{}
	for _, p := range profiles {
		if out.Hz == 0 {
			out.Hz = p.Hz
		}
		out.BaseCycles += p.BaseCycles
		out.TotalCycles += p.TotalCycles
		for _, f := range p.Frames {
			i, ok := byStack[f.Stack]
			if !ok {
				i = len(out.Frames)
				byStack[f.Stack] = i
				out.Frames = append(out.Frames, Frame{Stack: f.Stack})
			}
			out.Frames[i].Self += f.Self
			out.Frames[i].Calls += f.Calls
		}
	}
	sort.Slice(out.Frames, func(i, j int) bool { return out.Frames[i].Stack < out.Frames[j].Stack })
	return out
}

// Merging random trees node by node, in any order, renders the same
// Profile as snapshotting each tree to stack strings and merging those;
// a single tree's Snapshot matches its string snapshot too.
func TestMergeMatchesStackMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 20; round++ {
		ps := make([]*Profiler, 1+rng.Intn(8))
		snaps := make([]*Profile, len(ps))
		for i := range ps {
			ps[i] = randomProfiler(t, rng)
			snaps[i] = oldSnapshot(ps[i])
			if got := ps[i].Snapshot(); !reflect.DeepEqual(got, snaps[i]) {
				t.Fatalf("round %d: Snapshot of profiler %d differs from its stack snapshot:\n%+v\n%+v",
					round, i, got, snaps[i])
			}
		}
		want := oldMerge(snaps...)
		for perm := 0; perm < 3; perm++ {
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			if got := Merge(ps...); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, order %d: merged trees differ from merged stack snapshots:\n%+v\n%+v",
					round, perm, got, want)
			}
		}
	}
}

// Merging allocates for the merged tree and its frames, not per
// profiler: one profiler and sixty-four of the same shape cost the same
// number of allocations.
func TestMergeAllocatesPerFrameNotPerProfiler(t *testing.T) {
	ps := make([]*Profiler, 64)
	for i := range ps {
		ps[i] = randomProfiler(t, rand.New(rand.NewSource(7)))
	}
	one := testing.AllocsPerRun(20, func() { Merge(ps[0]) })
	all := testing.AllocsPerRun(20, func() { Merge(ps...) })
	if one != all {
		t.Errorf("merging 1 profiler allocated %.0f times, 64 profilers %.0f times", one, all)
	}
	if frames := len(Merge(ps...).Frames); one > float64(2*frames+8) {
		t.Errorf("merging %d frames allocated %.0f times, want at most two per frame", frames, one)
	}
}
