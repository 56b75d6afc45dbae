package switcher_test

import (
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

func TestKernelTrace(t *testing.T) {
	img := core.NewImage("trace")
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{
			{Name: "ok", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				return api.EV(api.OK)
			}},
			{Name: "crash", MinStack: 64, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "x")
				return nil
			}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "svc", Entry: "ok"},
			{Kind: firmware.ImportCall, Target: "svc", Entry: "crash"},
		},
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				_, _ = ctx.Call("svc", "ok")
				_, _ = ctx.Call("svc", "crash")
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	s.EnableTelemetry(64)
	run(t, s)

	events := s.Telemetry().Ring().Events()
	if len(events) == 0 {
		t.Fatal("no trace recorded")
	}
	// Project to (kind, to) pairs and look for the expected story.
	var story []string
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindCall:
			if e.To == "svc" {
				story = append(story, "call:"+e.Entry)
			}
		case telemetry.KindReturn:
			if e.To == "svc" {
				story = append(story, "return:"+e.Entry)
			}
		case telemetry.KindTrap:
			story = append(story, "trap:"+e.Detail)
		case telemetry.KindUnwind:
			story = append(story, "unwind:"+e.To)
		}
	}
	want := []string{"call:ok", "return:ok", "call:crash", "trap:illegal instruction", "unwind:svc"}
	if len(story) != len(want) {
		t.Fatalf("story = %v, want %v", story, want)
	}
	for i := range want {
		if story[i] != want[i] {
			t.Fatalf("story = %v, want %v", story, want)
		}
	}
	// Cycles are monotone.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatal("trace cycles not monotone")
		}
	}
	// Events render without panicking.
	for _, e := range events {
		if e.String() == "" {
			t.Fatal("empty render")
		}
	}
}

func TestTraceRingWraps(t *testing.T) {
	img := core.NewImage("trace-ring")
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 64, DataSize: 0,
		Exports: []*firmware.Export{{Name: "ok", MinStack: 0,
			Entry: func(ctx api.Context, args []api.Value) []api.Value { return nil }}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "main", CodeSize: 64, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "svc", Entry: "ok"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 50; i++ {
					_, _ = ctx.Call("svc", "ok")
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "main", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	s := boot(t, img)
	reg := s.EnableTelemetry(16)
	run(t, s)
	events := reg.Ring().Events()
	if len(events) != 16 {
		t.Fatalf("ring holds %d events, want capacity 16", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatal("wrapped trace out of order")
		}
	}
	// The wrap is not silent: the ring reports how much history it lost.
	// 50 calls produce at least 100 call/return events, of which 16 are
	// held, so at least 84 must be counted as dropped.
	if dropped := reg.Ring().Dropped(); dropped < 84 {
		t.Fatalf("Dropped() = %d, want >= 84", dropped)
	}

	// Re-enabling resets both the events and the drop count.
	reg.EnableTrace(16)
	if got := reg.Ring().Events(); len(got) != 0 {
		t.Fatalf("re-EnableTrace kept %d stale events", len(got))
	}
	if d := reg.Ring().Dropped(); d != 0 {
		t.Fatalf("re-EnableTrace kept drop count %d", d)
	}
}

// TestTraceKindStringsExhaustive: every event kind renders and has a
// layer, and a call event's posture, which the kernel copies from the
// export's firmware.Posture, renders as that posture.
func TestTraceKindStringsExhaustive(t *testing.T) {
	for k := telemetry.Kind(0); k < telemetry.KindCount; k++ {
		if k.String() == "?" || k.Layer() == "?" {
			t.Errorf("Kind(%d) = %q has no rendering or layer", k, k)
		}
		ev := telemetry.Event{Cycle: 1, Kind: k, Thread: "t", From: "a", To: "b", Entry: "e"}
		if s := ev.String(); strings.Contains(s, "?") {
			t.Errorf("event with kind %q renders as %q", k, s)
		}
	}
	for p, want := range map[firmware.Posture]string{
		firmware.PostureInherit:  "irq-inherit",
		firmware.PostureEnabled:  "irq-enabled",
		firmware.PostureDisabled: "irq-disabled",
	} {
		ev := telemetry.Event{Kind: telemetry.KindCall, Arg: uint64(p)}
		if s := ev.String(); !strings.HasSuffix(s, "["+want+"]") {
			t.Errorf("call with posture %v renders as %q, want [%s]", p, s, want)
		}
	}
}
