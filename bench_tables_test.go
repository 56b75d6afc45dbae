// Benchmarks regenerating the paper's tables: Table 2 (code and data
// size), Table 3 (core API latencies), Table 4 (design comparison), the
// §5.1.1 TCB inventory, and the §5.2 wrapper-share analysis.
package cheriot_test

import (
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/loader"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/token"
)

// baseImage builds the paper's minimal two-thread base system.
func baseImage() *firmware.Image {
	img := core.NewImage("base-system")
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 32,
		Exports: []*firmware.Export{{Name: "main", MinStack: 256, Entry: nop}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "idle", Compartment: "app", Entry: "main",
		Priority: 0, StackSize: 512, TrustedStackFrames: 4})
	return img
}

// networkImage builds the base system plus the full network stack.
func networkImage() *firmware.Image {
	img := core.NewImage("networked-system")
	netstack.AddTo(img, netstack.Config{
		DeviceIP:   netproto.IPv4(10, 0, 0, 2),
		DNSServer:  netproto.IPv4(10, 0, 0, 53),
		NTPServer:  netproto.IPv4(10, 0, 0, 123),
		RootSecret: []byte("root"),
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 32,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 8192}},
		Imports:   netstack.MQTTImports(),
		Exports:   []*firmware.Export{{Name: "main", MinStack: 8192, Entry: nop}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 16 * 1024, TrustedStackFrames: 24})
	return img
}

// table2Row is one Table 2 measurement: a size in bytes, or with pct
// set a compartment's wrapper share of its code in percent. paper is
// the paper's figure ("" where it gives none).
type table2Row struct {
	name  string
	paper string
	value float64
	pct   bool
}

// table2Rows boots the base and networked systems and measures Table 2:
// the whole-image code and data footprints, the loader and switcher,
// each base and network-stack compartment, the networked system's
// stacks, trusted stacks and metadata, and the per-compartment
// overhead.
func table2Rows(tb testing.TB) []table2Row {
	var rows []table2Row
	size := func(name, paper string, bytes uint32) {
		rows = append(rows, table2Row{name: name, paper: paper, value: float64(bytes)})
	}
	boot := func(img *firmware.Image) (*firmware.Image, firmware.Footprint) {
		s, err := core.Boot(img)
		if err != nil {
			tb.Fatal(err)
		}
		s.Shutdown()
		return s.Image, s.Image.Measure()
	}

	base, baseF := boot(baseImage())
	size("base_code", "25.9 KB", baseF.CodeBytes+loader.CodeBytes+switcher.CodeBytes)
	size("base_data", "3.7 KB", baseF.DataBytes)
	size("loader_code", "7.5 KB, erased after boot", loader.CodeBytes)
	size("switcher_code", "1.4 KB", switcher.CodeBytes)
	for _, name := range []string{"alloc", "sched", "token"} {
		c := base.Compartment(name)
		size(name+"_code", "", c.CodeSize)
		size(name+"_data", "", c.DataSize)
	}

	net, netF := boot(networkImage())
	size("net_code", "151.8 KB", netF.CodeBytes+loader.CodeBytes+switcher.CodeBytes)
	size("net_data", "20.4 KB", netF.DataBytes)
	for _, name := range []string{
		netstack.Firewall, netstack.TCPIP, netstack.NetAPI, netstack.DNS,
		netstack.SNTP, netstack.TLS, netstack.MQTT,
	} {
		c := net.Compartment(name)
		size(name+"_code", "", c.CodeSize)
		wrapper := 0.0
		if c.CodeSize > 0 {
			wrapper = 100 * float64(c.WrapperCodeSize) / float64(c.CodeSize)
		}
		rows = append(rows, table2Row{name: name + "_wrapper", value: wrapper, pct: true})
		size(name+"_data", "", c.DataSize)
	}
	size("net_stacks", "", netF.StackBytes)
	size("net_trusted_stacks", "", netF.TrustedStackBytes)
	size("net_metadata", "", netF.MetadataBytes)
	size("per_compartment_overhead", "83 B", firmware.CompartmentOverheadBytes)
	return rows
}

// BenchmarkTable2_CodeDataSize regenerates Table 2: per-component and
// whole-image code/data footprints of the base and networked systems.
func BenchmarkTable2_CodeDataSize(b *testing.B) {
	var rows []table2Row
	for i := 0; i < b.N; i++ {
		rows = table2Rows(b)
	}
	out := "\nTable 2 — code and data size (paper values in parens):\n"
	for _, r := range rows {
		switch {
		case r.pct:
			out += fmt.Sprintf("  %-26s %7.0f %%", r.name, r.value)
		case r.value < 1024:
			out += fmt.Sprintf("  %-26s %7.0f B", r.name, r.value)
		default:
			out += fmt.Sprintf("  %-26s %7.1f KB", r.name, r.value/1024)
		}
		if r.paper != "" {
			out += " (" + r.paper + ")"
		}
		out += "\n"
		switch r.name {
		case "base_code":
			b.ReportMetric(r.value/1024, "base-code-KB")
		case "net_code":
			b.ReportMetric(r.value/1024, "net-code-KB")
		}
	}
	printOnce("table2", out)
}

// table3Row is one Table 3 API: the paper's cycles and the measured
// average.
type table3Row struct {
	name   string
	paper  float64
	cycles float64
}

// table3Rows measures Table 3's core RTOS API latencies, averaging each
// over reps runs.
func table3Rows(tb testing.TB, reps int) []table3Row {
	var rows []table3Row
	measured := func(name string, paper float64, total uint64, n int) {
		rows = append(rows, table3Row{name, paper, float64(total) / float64(n)})
	}

	img := core.NewImage("table3")
	token.AddLibTo(img)
	libs.AddCheckTo(img)

	// A victim compartment for the error-handling rows.
	handlerRan := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "victim-plain", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{
			{Name: "ok", MinStack: 0, Entry: func(ctx api.Context, args []api.Value) []api.Value { return nil }},
			{Name: "crash", MinStack: 0, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "bench")
				return nil
			}},
		},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "victim-handler", CodeSize: 128, DataSize: 0,
		ErrorHandler: func(ctx api.Context, t *hw.Trap) api.HandlerDecision {
			handlerRan++
			return api.HandlerUnwind
		},
		Exports: []*firmware.Export{
			{Name: "crash", MinStack: 0, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "bench")
				return nil
			}},
		},
	})

	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 512, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 64 * 1024}},
		Imports: append(append(append(append(alloc.Imports(), token.Imports()...),
			token.LibImports()...), libs.CheckImports()...),
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-plain", Entry: "ok"},
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-plain", Entry: "crash"},
			firmware.Import{Kind: firmware.ImportCall, Target: "victim-handler", Entry: "crash"},
		),
		Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				cl := alloc.Client{}
				stopwatch := func(fn func()) uint64 {
					start := ctx.Now()
					fn()
					return ctx.Now() - start
				}

				// Opaque objects: unseal via the token library fast path.
				key, _ := token.KeyNew(ctx)
				sobj, _ := cl.MallocSealed(ctx, key, 32)
				var total uint64
				for i := 0; i < reps; i++ {
					total += stopwatch(func() {
						rets := ctx.LibCall(token.LibName, token.FnUnsealFast, api.C(key), api.C(sobj))
						if api.ErrnoOf(rets) != api.OK {
							tb.Error("unseal failed")
						}
					})
				}
				measured("Unseal an object", 44.8, total, reps)

				// Allocate a sealed object.
				total = 0
				for i := 0; i < reps; i++ {
					var s2 cap.Capability
					total += stopwatch(func() { s2, _ = cl.MallocSealed(ctx, key, 32) })
					cl.FreeSealed(ctx, key, s2)
				}
				measured("Allocate a sealed object", 2432.2, total, reps)

				// Allocate a new key.
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() { _, _ = token.KeyNew(ctx) })
				}
				measured("Allocate a new key", 688, total, reps)

				// De-privilege a pointer.
				g := ctx.Globals()
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() { libs.ReadOnly(ctx, g) })
				}
				measured("De-privilege a pointer", 10, total, reps)

				// Check a pointer.
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() { libs.CheckPointer(ctx, g, cap.PermLoad, 16) })
				}
				measured("Check a pointer", 44, total, reps)

				// Ephemeral claim.
				obj, _ := cl.Malloc(ctx, 64)
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() { ctx.EphemeralClaim(obj) })
				}
				measured("Ephemeral claim", 182, total, reps)

				// Heap claim + unclaim.
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() {
						if cl.Claim(ctx, obj) != api.OK {
							tb.Error("claim failed")
						}
						if cl.Free(ctx, obj) != api.OK {
							tb.Error("unclaim failed")
						}
					})
				}
				measured("Heap claim + unclaim", 371.4, total, reps)

				// Error handling: net unwind cost = faulting call - clean call.
				var clean, unwound, handled uint64
				for i := 0; i < reps; i++ {
					clean += stopwatch(func() { ctx.Call("victim-plain", "ok") })
					unwound += stopwatch(func() { ctx.Call("victim-plain", "crash") })
					handled += stopwatch(func() { ctx.Call("victim-handler", "crash") })
				}
				measured("Fault+unwind (no handler)", 109, unwound-clean, reps)
				measured("Fault+unwind (global handler)", 413, handled-clean, reps)

				// Scoped handlers.
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() {
						ctx.During(func() {}, func(t *hw.Trap) {})
					})
				}
				measured("Scoped handler, non-error path", 87, total, reps)
				total = 0
				for i := 0; i < reps; i++ {
					total += stopwatch(func() {
						ctx.During(func() {
							ctx.Fault(hw.TrapBoundsViolation, "bench")
						}, func(t *hw.Trap) {})
					})
				}
				measured("Scoped handler, fault+unwind", 222, total, reps)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 16 * 1024, TrustedStackFrames: 16})
	bootBench(tb, img)
	if handlerRan == 0 {
		tb.Fatal("handler never ran")
	}
	return rows
}

// BenchmarkTable3_CoreAPILatencies regenerates Table 3: average latencies
// of the core RTOS APIs, in simulated cycles.
func BenchmarkTable3_CoreAPILatencies(b *testing.B) {
	reps := b.N
	if reps < 16 {
		reps = 16
	}
	rows := table3Rows(b, reps)
	out := "\nTable 3 — core API latencies (simulated cycles, paper in parens):\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-32s %8.1f  (%.1f)\n", r.name, r.cycles, r.paper)
	}
	printOnce("table3", out)
	for _, r := range rows {
		if r.name == "Unseal an object" {
			b.ReportMetric(r.cycles, "simcycles/unseal")
		}
	}
}

// BenchmarkTable4_Comparison prints the qualitative design-aspect matrix
// of Table 4 and asserts this implementation's column by construction:
// each "Yes" corresponds to a tested mechanism in this repository.
func BenchmarkTable4_Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = i
	}
	aspects := []string{
		"MMU-less", "Spatial Memory Safety", "Heap Temporal Memory Safety",
		"Call-Stack Temporal Safety", "Fine-Grain Compartments",
		"Fault-Tolerant Compartments", "De-Privileged TCB",
		"Interface-Hardening APIs", "Auditing Support",
	}
	systems := map[string][]string{
		"Singularity":     {"Partial", "Yes", "Yes", "Yes", "No", "No", "No", "No", "No"},
		"Tock":            {"Yes", "Partial", "Partial", "Partial", "No", "No", "No", "No", "No"},
		"TZ-DATASHIELD":   {"Yes", "No", "No", "No", "Yes", "No", "No", "No", "No"},
		"CheriBSD":        {"No", "Yes", "Partial", "No", "Partial", "No", "No", "No", "No"},
		"CheriOS":         {"No", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "No", "No"},
		"CheriRTOS":       {"Yes", "Yes", "No", "No", "No", "No", "No", "No", "No"},
		"CompartOS":       {"Yes", "Yes", "No", "No", "Yes", "Yes", "No", "No", "No"},
		"CHERIoT (repro)": {"Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes"},
	}
	order := []string{"Singularity", "Tock", "TZ-DATASHIELD", "CheriBSD",
		"CheriOS", "CheriRTOS", "CompartOS", "CHERIoT (repro)"}
	out := "\nTable 4 — design-aspect comparison:\n"
	out += fmt.Sprintf("  %-16s", "")
	for i := range aspects {
		out += fmt.Sprintf(" A%d", i+1)
	}
	out += "\n"
	for _, sys := range order {
		out += fmt.Sprintf("  %-16s", sys)
		for _, v := range systems[sys] {
			short := map[string]string{"Yes": " Y", "No": " N", "Partial": " P"}[v]
			out += fmt.Sprintf(" %s", short)
		}
		out += "\n"
	}
	for i, a := range aspects {
		out += fmt.Sprintf("    A%d = %s\n", i+1, a)
	}
	printOnce("table4", out)
}

// BenchmarkTCBInventory regenerates the §5.1.1 TCB size and attack-surface
// inventory.
func BenchmarkTCBInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.Boot(baseImage())
		if err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
		if i > 0 {
			continue
		}
		allocC := s.Image.Compartment(alloc.Name)
		schedC := s.Image.Compartment("sched")
		out := "\n§5.1.1 — TCB inventory (paper values in parens):\n"
		out += fmt.Sprintf("  Loader:    %4.1f KB code (1.9K LoC), erased after boot\n",
			float64(loader.CodeBytes)/1024)
		out += fmt.Sprintf("  Switcher:  %4.1f KB, %d entry points (355 instrs, 11 entries)\n",
			float64(switcher.CodeBytes)/1024, switcher.EntryPoints)
		out += fmt.Sprintf("  Allocator: %4.1f KB, %d entry points (9 KB, 16 entries)\n",
			float64(allocC.CodeSize)/1024, len(allocC.Exports))
		out += fmt.Sprintf("  Scheduler: %4.1f KB, %d entry points (3.3 KB, 15 entries; availability only)\n",
			float64(schedC.CodeSize)/1024, len(schedC.Exports))
		printOnce("tcb", out)
	}
}

// BenchmarkWrapperShare regenerates the §5.2 source-compatibility
// analysis: how much of each ported component is CHERIoT wrapper code.
func BenchmarkWrapperShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.Boot(networkImage())
		if err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
		img := s.Image
		if i > 0 {
			continue
		}
		out := "\n§5.2 — wrapper share of ported components (paper in parens):\n"
		paper := map[string]string{
			netstack.TCPIP: "23%", netstack.SNTP: "72%",
			netstack.TLS: "8%", netstack.MQTT: "28%",
		}
		for _, name := range []string{netstack.TCPIP, netstack.SNTP, netstack.TLS, netstack.MQTT} {
			c := img.Compartment(name)
			out += fmt.Sprintf("  %-8s wrapper %5.1f%% of %5.1f KB (%s)\n",
				name, 100*float64(c.WrapperCodeSize)/float64(c.CodeSize),
				float64(c.CodeSize)/1024, paper[name])
		}
		printOnce("wrapper", out)
	}
}
