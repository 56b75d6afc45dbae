package flightrec

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// feeder stands in for the kernel: it stamps each event with the next
// tick of a fake clock and hands it to the recorder.
type feeder struct {
	r         *Recorder
	now, step uint64
}

func (f *feeder) emit(ev telemetry.Event) uint32 {
	f.now += f.step
	ev.Cycle = f.now
	return f.r.Record(ev, nil)
}

func (f *feeder) root(comp string, base, top uint32, note string) uint32 {
	return f.emit(telemetry.Event{Kind: telemetry.KindRoot, To: comp, Detail: note,
		Arg: uint64(base), Arg2: uint64(top)})
}

func (f *feeder) alloc(heap uint32, owner, quota string, base, size uint32) uint32 {
	return f.emit(telemetry.Event{Kind: telemetry.KindAlloc, To: owner, Entry: "heap_allocate",
		Detail: quota, Parent: heap, Arg: uint64(size), Arg2: uint64(base)})
}

func (f *feeder) free(base, size uint32, by string) {
	f.emit(telemetry.Event{Kind: telemetry.KindFree, From: by, Arg: uint64(size), Arg2: uint64(base)})
}

// sweep emits one revocation sweep: start at epoch end-1, end at end.
func (f *feeder) sweep(end uint64) {
	f.emit(telemetry.Event{Kind: telemetry.KindSweepStart, Arg: end - 1})
	f.emit(telemetry.Event{Kind: telemetry.KindSweepEnd, Arg: end, Arg2: 1024})
}

// TestOpStrings pins the flight recorder's op vocabulary: the names its
// dumps, histograms and cheriot-inspect -op filters use. Every kind the
// recorder keeps renders one of these names, no two kept kinds share
// one, each parses back with KindFromString and survives a dump's JSON
// round trip, and every name is still kept.
func TestOpStrings(t *testing.T) {
	opNames := []string{"derive", "seal", "unseal", "call", "return", "unwind", "trap",
		"alloc", "free", "claim", "sweep-start", "sweep-end", "futex-wait", "futex-wake",
		"load-filtered", "reboot"}
	known := make(map[string]bool, len(opNames))
	for _, s := range opNames {
		known[s] = true
	}
	fault := &hw.Trap{Code: hw.TrapTagViolation}
	seen := make(map[string]telemetry.Kind)
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		r := New(4)
		r.Record(telemetry.Event{Kind: k, To: "c"}, fault)
		if r.Len() == 0 {
			continue
		}
		s := k.String()
		if !known[s] {
			t.Errorf("recorder keeps kind %d as %q, which is not one of its op names", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the op name %q", prev, k, s)
		}
		seen[s] = k
		if got := telemetry.KindFromString(s); got != k {
			t.Errorf("KindFromString(%q) = %d, want %d", s, got, k)
		}
		d := r.Snapshot(0)
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("kind %s: %v", s, err)
		}
		if n := back.Histogram()["c"][s]; n != 1 {
			t.Errorf("kind %s: dump histogram counts %d, want 1", s, n)
		}
	}
	for _, s := range opNames {
		if _, ok := seen[s]; !ok {
			t.Errorf("op name %q names no kind the recorder keeps", s)
		}
	}
	if telemetry.KindFromString("no-such-op") != telemetry.KindCount {
		t.Error("KindFromString should return KindCount for unknown names")
	}
}

// TestNilRecorder checks every method is nil-safe: the disabled path in
// the kernel is a bare nil check.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetDevice("x")
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		if r.Record(telemetry.Event{Kind: k}, &hw.Trap{Code: hw.TrapTagViolation}) != 0 {
			t.Errorf("nil Record(%s) should return node 0", k)
		}
	}
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 || r.Sweeps() != 0 {
		t.Error("nil recorder should hold nothing")
	}
	if ch, al := r.Provenance(cap.Capability{}); ch != nil || al != nil {
		t.Error("nil Provenance should be empty")
	}
	if d := r.Snapshot(0); d.Capacity != 0 {
		t.Error("nil Snapshot should be zero")
	}
}

// TestRecordKeepsItsKinds pins the one switch that decides what the
// recorder keeps: everything but scheduling, quarantine and network
// events (the trace's alone) and provenance roots, and a trap only with
// a cause that is not a forced unwind.
func TestRecordKeepsItsKinds(t *testing.T) {
	notKept := map[telemetry.Kind]bool{
		telemetry.KindSwitch: true, telemetry.KindSleep: true, telemetry.KindQuarantine: true,
		telemetry.KindNetRx: true, telemetry.KindNetTx: true, telemetry.KindSend: true,
		telemetry.KindRecv: true, telemetry.KindRoot: true,
	}
	fault := &hw.Trap{Code: hw.TrapTagViolation}
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		r := New(4)
		r.Record(telemetry.Event{Kind: k}, fault)
		if kept := r.Len() == 1; kept == notKept[k] {
			t.Errorf("kind %s: kept = %v", k, kept)
		}
	}
	r := New(4)
	r.Record(telemetry.Event{Kind: telemetry.KindTrap}, nil)
	r.Record(telemetry.Event{Kind: telemetry.KindTrap}, &hw.Trap{Code: hw.TrapForcedUnwind})
	if r.Len() != 0 || r.ReportsTotal() != 0 {
		t.Errorf("causeless or forced-unwind trap: %d events, %d reports; want none", r.Len(), r.ReportsTotal())
	}
}

// TestRingWraparound verifies the fixed-size ring overwrites oldest-first
// and reports drops.
func TestRingWraparound(t *testing.T) {
	r := New(4)
	f := &feeder{r: r, step: 1}
	for i := 0; i < 7; i++ {
		f.emit(telemetry.Event{Kind: telemetry.KindCall, Arg: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Arg != want {
			t.Errorf("event %d has arg %d, want %d", i, ev.Arg, want)
		}
		if i > 0 && evs[i-1].Cycle > ev.Cycle {
			t.Errorf("events out of order at %d", i)
		}
	}
}

// TestProvenanceWalk builds an alloc -> free -> sweep history and checks
// a dangling capability resolves to the right allocation, owner, and
// sweep epoch.
func TestProvenanceWalk(t *testing.T) {
	r := New(64)
	f := &feeder{r: r, step: 10}

	heap := f.root("alloc", 0x1000, 0x9000, "shared heap")
	if heap == 0 {
		t.Fatal("root node not created")
	}
	n1 := f.alloc(heap, "firewall", "default", 0x2000, 64)
	if n1 == 0 {
		t.Fatal("alloc node not created")
	}
	f.alloc(heap, "tcpip", "default", 0x3000, 128)

	// A view derived from the first allocation.
	obj := cap.New(0x2000, 0x2040, 0x2010, cap.PermData)
	view, err := obj.SetBounds(16)
	if err != nil {
		t.Fatal(err)
	}
	f.emit(telemetry.Event{Kind: telemetry.KindDerive, To: "firewall", Detail: "tighten",
		Parent: n1, Arg: uint64(view.Base()), Arg2: uint64(view.Top())})

	// Free it at epoch 4, then complete a sweep (epoch 5 -> 6).
	f.sweep(2)
	f.sweep(4)
	f.free(0x2000, 64, "firewall")
	f.sweep(6)

	dangling := view.ClearTag()
	chain, al := r.Provenance(dangling)
	if al == nil {
		t.Fatal("no allocation matched the dangling capability")
	}
	if al.Owner != "firewall" || al.FreedBy != "firewall" {
		t.Errorf("allocation owner/freedBy = %q/%q, want firewall", al.Owner, al.FreedBy)
	}
	if al.Live() {
		t.Error("allocation should be freed")
	}
	if al.FreeEpoch != 4 || al.SweepEpoch != 6 {
		t.Errorf("free/sweep epoch = %d/%d, want 4/6", al.FreeEpoch, al.SweepEpoch)
	}
	if len(chain) < 2 {
		t.Fatalf("chain too short: %v", chain)
	}
	if chain[len(chain)-1].ID != heap {
		t.Errorf("chain root = node %d, want heap root %d", chain[len(chain)-1].ID, heap)
	}

	// The second allocation is still live.
	live := r.LiveAllocations()
	if len(live) != 1 || live[0].Base != 0x3000 {
		t.Fatalf("live allocations = %+v, want one at 0x3000", live)
	}
}

// TestFaultReport checks the structured post-mortem: summary sentence,
// capability field dump, provenance chain, and the ring tail.
func TestFaultReport(t *testing.T) {
	r := New(32)
	f := &feeder{r: r, step: 100}
	r.SetDevice("dev-7")

	heap := f.root("alloc", 0x1000, 0x9000, "shared heap")
	f.alloc(heap, "firewall", "default", 0x2000, 256)
	f.emit(telemetry.Event{Kind: telemetry.KindCall, Thread: "app", To: "tcpip", Entry: "ip_rx"})
	f.sweep(2)
	f.free(0x2000, 256, "firewall")
	f.sweep(4)

	bad := cap.New(0x2000, 0x2100, 0x2080, cap.PermData).ClearTag()
	trap := telemetry.Event{Kind: telemetry.KindTrap, Cycle: f.now + 100, Thread: "app", To: "tcpip",
		Entry: "ip_rx", Detail: "tag violation", Arg: 0x2080}
	r.Record(trap, &hw.Trap{Code: hw.TrapTagViolation, Detail: "use of untagged capability", Cap: bad})

	reps := r.Reports()
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Device != "dev-7" || rep.Compartment != "tcpip" || rep.Entry != "ip_rx" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Cap == nil || rep.Cap.Tag {
		t.Error("report should dump the untagged capability")
	}
	if rep.Allocation == nil || rep.Allocation.Owner != "firewall" {
		t.Fatalf("report should resolve the firewall allocation, got %+v", rep.Allocation)
	}
	if rep.Allocation.SweepEpoch != 4 {
		t.Errorf("sweep epoch = %d, want 4", rep.Allocation.SweepEpoch)
	}
	for _, want := range []string{"tag violation", "tcpip", "firewall", "sweep epoch 4", "dangling"} {
		if !strings.Contains(rep.Summary, want) {
			t.Errorf("summary %q missing %q", rep.Summary, want)
		}
	}
	if n := len(rep.Tail); n == 0 || rep.Tail[n-1].Kind != telemetry.KindTrap {
		t.Error("report should carry the ring tail, ending in the trap")
	}

	// Reboot marks the most recent report for the compartment.
	f.emit(telemetry.Event{Kind: telemetry.KindReboot, Thread: "app", To: "tcpip", Arg: 1})
	if !r.Reports()[0].Reboot {
		t.Error("reboot should mark the tcpip report")
	}

	var buf bytes.Buffer
	WriteReport(&buf, &rep)
	if !strings.Contains(buf.String(), "provenance") {
		t.Error("pretty-printed report missing provenance section")
	}
}

// TestDumpRoundTrip checks dump JSON encode/decode and the histogram.
func TestDumpRoundTrip(t *testing.T) {
	r := New(16)
	f := &feeder{r: r, step: 1}
	r.SetDevice("d0")
	heap := f.root("alloc", 0, 0x1000, "heap")
	f.alloc(heap, "app", "default", 0x100, 32)
	f.emit(telemetry.Event{Kind: telemetry.KindCall, Thread: "t", From: "app", To: "alloc",
		Entry: "heap_allocate", Arg: telemetry.PostureDisabled})
	f.emit(telemetry.Event{Kind: telemetry.KindReturn, Thread: "t", From: "app", To: "alloc",
		Entry: "heap_allocate"})

	d := r.Snapshot(33_000_000)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Device != "d0" || back.Hz != 33_000_000 || back.Capacity != 16 {
		t.Errorf("round trip lost header: %+v", back)
	}
	if len(back.Events) != len(d.Events) || back.Events[len(d.Events)-1] != d.Events[len(d.Events)-1] {
		t.Errorf("round trip lost events: %v != %v", back.Events, d.Events)
	}
	hist := back.Histogram()
	if hist["alloc"]["call"] != 1 && hist["app"]["call"] != 1 {
		t.Errorf("histogram missing call event: %v", hist)
	}
	var hb bytes.Buffer
	back.WriteHistogram(&hb)
	if !strings.Contains(hb.String(), "events") {
		t.Error("WriteHistogram produced nothing")
	}
	// A dump in the older event format is refused, not misread.
	if _, err := ReadDump(strings.NewReader(`{"events":[{"cycle":1,"op":4,"comp":"x"}]}`)); err == nil {
		t.Error("ReadDump accepted an old-format dump")
	}
}

// TestFreedHistoryBound checks the freed-allocation ring stays bounded
// and keeps the newest entries.
func TestFreedHistoryBound(t *testing.T) {
	r := New(8)
	f := &feeder{r: r, step: 1}
	heap := f.root("alloc", 0, 1<<20, "heap")
	for i := 0; i < maxFreed+10; i++ {
		base := uint32(0x1000 + i*16)
		f.alloc(heap, "app", "q", base, 16)
		f.free(base, 16, "app")
	}
	freed := r.FreedAllocations()
	if len(freed) != maxFreed {
		t.Fatalf("freed history = %d, want %d", len(freed), maxFreed)
	}
	// Newest free must be retained.
	last := freed[len(freed)-1]
	if last.Base != uint32(0x1000+(maxFreed+9)*16) {
		t.Errorf("newest freed entry lost: %+v", last)
	}
}
