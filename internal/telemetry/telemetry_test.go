package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	// Every disabled-path operation must be a no-op, not a panic.
	r.Counter("a", "b").Inc()
	r.Gauge("a", "b").Add(-3)
	r.Histogram("a", "b", DefaultSizeBuckets).Observe(7)
	r.Account("a").Slot()
	r.ThreadAccount("t")
	r.Ring().Record(Event{Kind: KindSwitch})
	r.EnableTrace(8)
	if r.AttributedCycles() != 0 || r.Ring() != nil || r.Hz() != 0 {
		t.Fatal("nil registry must read as empty")
	}
	if got := r.Snapshot(); got.AttributedCycles != 0 {
		t.Fatal("nil snapshot must be zero")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry(33_000_000)
	c := r.Counter("alloc", "mallocs")
	if c2 := r.Counter("alloc", "mallocs"); c2 != c {
		t.Fatal("Counter must return a stable handle per key")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("alloc", "quarantine_bytes")
	g.Set(100)
	g.Add(-40)
	if g.Value() != 60 {
		t.Fatalf("gauge = %d, want 60", g.Value())
	}

	h := r.Histogram("alloc", "size_bytes", []uint64{16, 64, 256})
	for _, v := range []uint64{8, 16, 17, 100, 1000} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bucket shapes: %d bounds, %d counts", len(bounds), len(counts))
	}
	// 8,16 <= 16; 17,100 <= 256 split as 17<=64 and 100<=256; 1000 -> +Inf.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 5 || h.Sum() != 8+16+17+100+1000 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestCycleAccounts(t *testing.T) {
	r := NewRegistry(0)
	a := r.Account("net")
	b := r.Account(DomainSwitcher)
	*a.Slot() += 70
	*b.Slot() += 30
	if r.AttributedCycles() != 100 {
		t.Fatalf("attributed = %d, want 100", r.AttributedCycles())
	}
	accs := r.Accounts()
	if len(accs) != 2 || accs[0].Name() != "net" || accs[0].Cycles() != 70 {
		t.Fatalf("accounts = %v", accs)
	}
	// Thread accounts are a separate partition.
	ta := r.ThreadAccount("worker")
	*ta.Slot() += 999
	if r.AttributedCycles() != 100 {
		t.Fatal("thread accounts must not leak into compartment attribution")
	}
}

func TestRingWrapAndDropCount(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(Event{Cycle: uint64(i + 1), Kind: KindSwitch})
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	if ring.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", ring.Dropped())
	}
	// Chronological order survives the wrap.
	for i, e := range evs {
		if e.Cycle != uint64(7+i) {
			t.Fatalf("events = %v", evs)
		}
	}
}

// TestKindStringsExhaustive keeps the one event vocabulary complete:
// every kind renders, uniquely, parses back, has a layer, and renders as
// an event without falling through.
func TestKindStringsExhaustive(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < KindCount; k++ {
		if k.String() == "?" || k.String() == "" {
			t.Errorf("Kind(%d) has no String rendering", k)
		}
		if prev, dup := seen[k.String()]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, k)
		}
		seen[k.String()] = k
		if got := KindFromString(k.String()); got != k {
			t.Errorf("KindFromString(%q) = %d, want %d", k, got, k)
		}
		if k.Layer() == "?" || k.Layer() == "" {
			t.Errorf("Kind(%d) = %q has no Layer", k, k)
		}
		// The rendered event must not fall through to the "?" branch.
		if s := (Event{Cycle: 1, Kind: k}).String(); strings.HasSuffix(s, "?") {
			t.Errorf("Event with kind %q renders as %q", k, s)
		}
	}
	// Past the end, the fallthroughs must engage rather than panic.
	if KindCount.String() != "?" || KindCount.Layer() != "?" {
		t.Error("out-of-range kinds must render as ?")
	}
	if KindFromString("no-such-kind") != KindCount {
		t.Error("KindFromString should return KindCount for unknown names")
	}
	// Provenance roots keep their historical rendering.
	if KindRoot.String() != "none" {
		t.Errorf("KindRoot renders %q, want none", KindRoot)
	}
}

// TestPostureString covers the call-posture rendering of call events.
func TestPostureString(t *testing.T) {
	for p, want := range map[uint64]string{
		PostureInherit: "irq-inherit", PostureEnabled: "irq-enabled", PostureDisabled: "irq-disabled",
	} {
		ev := Event{Kind: KindCall, Thread: "t", From: "a", To: "b", Entry: "e", Arg: p}
		if got := ev.String(); !strings.HasSuffix(got, "["+want+"]") {
			t.Errorf("posture %d renders %q, want [%s]", p, got, want)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry(33_000_000)
	r.SetBase(500)
	r.Counter("net", "rx").Add(3)
	r.Gauge("alloc", "quarantine_bytes").Set(64)
	r.Histogram("alloc", "size_bytes", DefaultSizeBuckets).Observe(100)
	*r.Account("app").Slot() += 10
	*r.ThreadAccount("t0").Slot() += 10
	r.EnableTrace(8)
	r.Ring().Record(Event{Cycle: 42, Kind: KindNetRx, To: "tcpip", Arg: 60})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if snap.Hz != 33_000_000 || snap.BaseCycles != 500 || snap.AttributedCycles != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.TraceEvents != 1 {
		t.Fatalf("trace events = %d", snap.TraceEvents)
	}

	var table bytes.Buffer
	r.WriteTable(&table)
	for _, want := range []string{"cycle attribution", "app", "net/rx", "histogram alloc/size_bytes"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRegistry(33_000_000)
	r.EnableTrace(64)
	r.Ring().Record(Event{Cycle: 100, Kind: KindSwitch, Thread: "t0"})
	r.Ring().Record(Event{Cycle: 200, Kind: KindCall, Thread: "t0", From: "app", To: "alloc", Entry: "heap_allocate"})
	r.Ring().Record(Event{Cycle: 300, Kind: KindAlloc, Thread: "t0", To: "app", Arg: 64})
	r.Ring().Record(Event{Cycle: 400, Kind: KindReturn, Thread: "t0", From: "app", To: "alloc", Entry: "heap_allocate"})
	r.Ring().Record(Event{Cycle: 500, Kind: KindNetTx, Thread: "t0", To: "tcpip", Arg: 128})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var b, e int
	cats := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "B":
			b++
		case "E":
			e++
		}
		cats[ev.Cat] = true
	}
	if b != 1 || e != 1 {
		t.Fatalf("B/E slices = %d/%d, want balanced 1/1", b, e)
	}
	for _, cat := range []string{"kernel", "alloc", "net"} {
		if !cats[cat] {
			t.Errorf("missing category %q", cat)
		}
	}
	// 200 cycles at 33 MHz is ~6.06 us.
	for _, ev := range out.TraceEvents {
		if ev.Ph == "B" && (ev.Ts < 6 || ev.Ts > 6.1) {
			t.Errorf("B ts = %f us, want ~6.06", ev.Ts)
		}
	}
}

func TestChromeTraceBalancesTruncatedRing(t *testing.T) {
	r := NewRegistry(33_000_000)
	r.EnableTrace(3)
	// The call event falls off the ring; its return survives. The export
	// must skip the unmatched E and close any dangling B.
	r.Ring().Record(Event{Cycle: 1, Kind: KindCall, Thread: "t0", To: "a", Entry: "x"})
	r.Ring().Record(Event{Cycle: 2, Kind: KindCall, Thread: "t0", To: "b", Entry: "y"})
	r.Ring().Record(Event{Cycle: 3, Kind: KindReturn, Thread: "t0", To: "b", Entry: "y"})
	r.Ring().Record(Event{Cycle: 4, Kind: KindReturn, Thread: "t0", To: "a", Entry: "x"})
	r.Ring().Record(Event{Cycle: 5, Kind: KindCall, Thread: "t0", To: "c", Entry: "z"})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var b, e int
	for _, ev := range out.TraceEvents {
		if ev.Ph == "B" {
			b++
		}
		if ev.Ph == "E" {
			e++
		}
	}
	if b != e {
		t.Fatalf("unbalanced slices: %d B vs %d E", b, e)
	}
	if out.OtherData["dropped_events"] == nil {
		t.Fatal("dropped_events not reported")
	}
}
