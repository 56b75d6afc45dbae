package snapshot

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// appImage builds a representative firmware image exercising every
// boot-relevant feature: two compartments with globals init, a library,
// cross-compartment calls, allocation capabilities, seal types, static
// sealed objects, shared globals, and two threads. Each call builds a
// fresh image with fresh closures — the same *shape*, different Go
// function values — exactly the situation snapshot/fork exploits.
func appImage(name string) *firmware.Image {
	img := firmware.NewImage(name)
	img.AddLibrary(&firmware.Library{
		Name: "mathlib", CodeSize: 256,
		Funcs: []*firmware.Export{{Name: "square", MinStack: 32,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				v := args[0].AsWord()
				return []api.Value{api.W(v * v)}
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 700, DataSize: 96,
		GlobalsInit: []byte{0xDE, 0xAD, 0xBE, 0xEF},
		AllocCaps:   []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports:     alloc.Imports(),
		SealTypes:   []string{"ticket"},
		StaticSealed: []firmware.StaticSealedObject{
			{Name: "config", SealType: "ticket", Size: 16, Init: []byte("static-config")},
		},
		Exports: []*firmware.Export{{
			Name: "work", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(25)
				cl := alloc.Client{}
				p, errno := cl.Malloc(ctx, 64)
				if errno != api.OK {
					return []api.Value{api.W(0)}
				}
				ctx.Store32(p, args[0].AsWord())
				v := ctx.Load32(p)
				cl.Free(ctx, p)
				return []api.Value{api.W(v + 1)}
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 600, DataSize: 64,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "server", Entry: "work"},
			{Kind: firmware.ImportLib, Target: "mathlib", Entry: "square"},
		},
		Exports: []*firmware.Export{{
			Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := uint32(1); i <= 3; i++ {
					if _, err := ctx.Call("server", "work", api.W(i)); err != nil {
						return nil
					}
					ctx.LibCall("mathlib", "square", api.W(i))
					ctx.Work(10)
				}
				return nil
			}}},
	})
	img.SharedGlobals = []firmware.SharedGlobal{
		{Name: "board-state", Size: 32, Writers: []string{"server"}, Readers: []string{"client"}},
	}
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "client", Entry: "main",
		Priority: 2, StackSize: 1024, TrustedStackFrames: 4})
	img.AddThread(&firmware.Thread{Name: "aux", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	return img
}

func TestKeyIgnoresNameAndClosures(t *testing.T) {
	a, b := appImage("device-a"), appImage("device-b")
	if Key(a) != Key(b) {
		t.Fatal("same shape, different name/closures: keys differ")
	}
	// Every shape-relevant change must change the key.
	mutations := []struct {
		name string
		mut  func(*firmware.Image)
	}{
		{"sram", func(i *firmware.Image) { i.SRAM *= 2 }},
		{"hz", func(i *firmware.Image) { i.Hz++ }},
		{"comp-name", func(i *firmware.Image) { i.Compartments[0].Name = "server2" }},
		{"code-size", func(i *firmware.Image) { i.Compartments[0].CodeSize++ }},
		{"globals-init", func(i *firmware.Image) { i.Compartments[0].GlobalsInit[0] ^= 1 }},
		{"quota", func(i *firmware.Image) { i.Compartments[0].AllocCaps[0].Quota++ }},
		{"sealed-init", func(i *firmware.Image) { i.Compartments[0].StaticSealed[0].Init[0] ^= 1 }},
		{"export-stack", func(i *firmware.Image) { i.Compartments[0].Exports[0].MinStack++ }},
		{"import", func(i *firmware.Image) { i.Compartments[1].Imports = i.Compartments[1].Imports[:1] }},
		{"thread-prio", func(i *firmware.Image) { i.Threads[0].Priority++ }},
		{"thread-stack", func(i *firmware.Image) { i.Threads[0].StackSize += 8 }},
		{"lib-size", func(i *firmware.Image) { i.Libraries[0].CodeSize++ }},
		{"shared-size", func(i *firmware.Image) { i.SharedGlobals[0].Size += 8 }},
		{"shared-reader", func(i *firmware.Image) { i.SharedGlobals[0].Readers = nil }},
		// The audit report records handler presence, and a fork hands
		// out its template's report.
		{"error-handler", func(i *firmware.Image) { i.Compartments[0].ErrorHandler = unwindHandler }},
	}
	for _, m := range mutations {
		img := appImage("x")
		m.mut(img)
		if Key(img) == Key(a) {
			t.Errorf("mutation %q did not change the key", m.name)
		}
	}
}

func unwindHandler(api.Context, *hw.Trap) api.HandlerDecision { return api.HandlerUnwind }

// TestKeyAllocatesPerKeyNotPerField pins Key's host cost: a fixed handful
// of allocations (the hash, its scratch buffer, the hex string), however
// many fields the image has. Writing each field through the hash.Hash
// interface from a fresh array used to allocate per field: 818 times for
// the fleet's default image.
func TestKeyAllocatesPerKeyNotPerField(t *testing.T) {
	small, large := appImage("small"), appImage("large")
	for i := 0; i < 50; i++ {
		large.AddCompartment(&firmware.Compartment{
			Name: fmt.Sprintf("extra%d", i), CodeSize: 64, DataSize: 16,
			GlobalsInit: []byte("init"),
			Imports:     []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "work"}},
			Exports:     []*firmware.Export{{Name: "main", MinStack: 64}},
		})
	}
	for _, img := range []*firmware.Image{small, large} {
		if n := testing.AllocsPerRun(20, func() { Key(img) }); n > 8 {
			t.Errorf("Key of a %d-compartment image allocates %.0f times, want at most 8",
				len(img.Compartments), n)
		}
	}
}

// TestForkEqualsColdBoot is the core identity proof: a forked System's
// post-boot SRAM (data, capabilities, tags, revocation bits) is
// byte-for-byte identical to a cold-booted one's.
func TestForkEqualsColdBoot(t *testing.T) {
	cold, err := core.BootWith(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Shutdown()

	// Captured under the cold boot's image name: a fork is its template's
	// machine, name included, and every observable, the audit report
	// too, must match the cold boot's.
	tmplSys, tmpl, err := Capture(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tmplSys.Shutdown()

	forked, err := tmpl.Fork(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Shutdown()

	if !cold.Board.Core.Mem.Equal(forked.Board.Core.Mem) {
		t.Fatal("forked post-boot memory differs from cold boot")
	}
	if !tmplSys.Board.Core.Mem.Equal(forked.Board.Core.Mem) {
		t.Fatal("forked post-boot memory differs from the template system")
	}
	if cold.Report == nil || forked.Report == nil {
		t.Fatal("audit report missing")
	}
	cr, _ := json.Marshal(cold.Report)
	fr, _ := json.Marshal(forked.Report)
	if string(cr) != string(fr) {
		t.Fatal("forked audit report differs from cold boot")
	}
}

// TestForkReportMatchesColdReport: a fork's audit report is its
// template's, so the key must separate every shape whose reports differ.
// An image without error handlers forks from a handler-less template,
// reports has_error_handler false as its cold boot does, and cannot fork
// from a template whose compartment has a handler.
func TestForkReportMatchesColdReport(t *testing.T) {
	withHandler := appImage("tmpl-handler")
	withHandler.Compartments[0].ErrorHandler = unwindHandler
	handlerSys, handlerTmpl, err := Capture(withHandler, core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	handlerSys.Shutdown()
	if _, err := handlerTmpl.Fork(appImage("dev"), core.BootOptions{}); err == nil {
		t.Fatal("a handler-less image forked from a template with a handler")
	}

	// Captured under the cold boot's name, which the report records.
	tmplSys, tmpl, err := Capture(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tmplSys.Shutdown()
	cold, err := core.BootWith(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Shutdown()
	forked, err := tmpl.Fork(appImage("dev"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Shutdown()
	if forked.Report.Compartments["server"].HasErrorHandler {
		t.Fatal("a handler-less fork reports has_error_handler")
	}
	cr, _ := json.Marshal(cold.Report)
	fr, _ := json.Marshal(forked.Report)
	if string(cr) != string(fr) {
		t.Fatalf("fork report differs from cold boot:\nfork: %s\ncold: %s", fr, cr)
	}
}

// runToCompletion drives an already-booted System with flight recorder +
// telemetry enabled and returns the observable outcome: the serialized
// flight-recorder dump and the final cycle count.
func runToCompletion(t *testing.T, s *core.System) (flight string, cycles uint64) {
	t.Helper()
	s.EnableTelemetry(256)
	rec := s.EnableFlightRecorder(512)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	dump := rec.Snapshot(s.Board.Core.Clock.Hz())
	fj, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return string(fj), s.Cycles()
}

// TestForkRunsIdentically drives a cold-booted and a forked System to
// completion and demands identical flight-recorder streams, identical
// final cycle counts, and identical final memory.
func TestForkRunsIdentically(t *testing.T) {
	cold, err := core.BootWith(appImage("twin"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Shutdown()

	// Captured under the cold boot's name, which the recorder's dump
	// carries as its device.
	tmplSys, tmpl, err := Capture(appImage("twin"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tmplSys.Shutdown()

	forked, err := tmpl.Fork(appImage("twin"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Shutdown()

	coldFlight, coldCycles := runToCompletion(t, cold)
	forkFlight, forkCycles := runToCompletion(t, forked)
	if coldCycles != forkCycles {
		t.Fatalf("cycle counts diverge: cold %d, forked %d", coldCycles, forkCycles)
	}
	if coldFlight != forkFlight {
		t.Fatal("flight-recorder streams diverge between cold and forked boot")
	}
	if !cold.Board.Core.Mem.Equal(forked.Board.Core.Mem) {
		t.Fatal("final memory diverges between cold and forked boot")
	}
}

func TestForkRefusesShapeMismatch(t *testing.T) {
	sys, tmpl, err := Capture(appImage("t"), core.BootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Shutdown()
	bad := appImage("bad")
	bad.Compartments[0].GlobalsInit[0] ^= 0xFF
	if _, err := tmpl.Fork(bad, core.BootOptions{}); err == nil {
		t.Fatal("fork of a different shape succeeded")
	}
}
