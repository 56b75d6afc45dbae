// Benchmarks regenerating the paper's performance figures (§5.3.2).
//
// Every benchmark reports *simulated* cycles (and derived MiB/s) via
// b.ReportMetric; host ns/op is meaningless for the reproduction and
// should be ignored. EXPERIMENTS.md compares each number against the
// paper. Run with:
//
//	go test -bench=. -benchmem .
package cheriot_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// printed dedupes table output across the harness's b.N re-runs.
var printed sync.Map

func printOnce(key, s string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Print(s)
	}
}

// bootBench boots an image and runs it to completion, failing tb on
// error.
func bootBench(tb testing.TB, img *firmware.Image) *core.System {
	tb.Helper()
	s, err := core.Boot(img)
	if err != nil {
		tb.Fatalf("Boot: %v", err)
	}
	if err := s.Run(nil); err != nil {
		s.Shutdown()
		tb.Fatalf("Run: %v", err)
	}
	s.Shutdown()
	return s
}

func nop(ctx api.Context, args []api.Value) []api.Value { return nil }

// fig6aCases are Fig. 6a's call-latency points: callee stack usage and
// the paper's cycles.
var fig6aCases = []struct {
	name     string
	minStack uint32
	paper    float64
}{
	{"empty_call", 0, 209},
	{"stack_256B", 256, 452},
	{"stack_1KiB", 1024, 1284},
}

// callCycles returns the simulated cycles of n cross-compartment calls
// into a callee that declares minStack bytes of stack, after one warm-up
// call as in the paper's methodology.
func callCycles(tb testing.TB, minStack uint32, n int) uint64 {
	var cycles uint64
	img := core.NewImage("fig6a")
	img.AddCompartment(&firmware.Compartment{
		Name: "server", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "fn", MinStack: minStack, Entry: nop}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "fn"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if _, err := ctx.Call("server", "fn"); err != nil {
					tb.Errorf("warm-up: %v", err)
					return nil
				}
				start := ctx.Now()
				for i := 0; i < n; i++ {
					if _, err := ctx.Call("server", "fn"); err != nil {
						tb.Errorf("call: %v", err)
						return nil
					}
				}
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	bootBench(tb, img)
	return cycles
}

// BenchmarkFig6a_CallLatency measures cross-compartment call round trips
// at increasing stack usage. Fig. 6a reports 209 cycles for an empty
// call, 452 with 256 B of stack, and 1284 for the 1 KiB worst case.
func BenchmarkFig6a_CallLatency(b *testing.B) {
	printOnce("fig6a-head", "\nFig. 6a — compartment-call latency vs stack usage:\n")
	for _, tc := range fig6aCases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			per := float64(callCycles(b, tc.minStack, b.N)) / float64(b.N)
			b.ReportMetric(per, "simcycles/call")
			printOnce("fig6a-"+tc.name,
				fmt.Sprintf("  %-12s %8.1f cycles (paper: %6.1f)\n", tc.name, per, tc.paper))
		})
	}
}

// libCallCycles returns the simulated cycles of n shared-library calls
// through their sentry.
func libCallCycles(tb testing.TB, n int) uint64 {
	var cycles uint64
	img := core.NewImage("fig6a-lib")
	img.AddLibrary(&firmware.Library{
		Name: "mathlib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "id", Entry: func(ctx api.Context, args []api.Value) []api.Value {
			return args
		}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128, DataSize: 0,
		Imports: []firmware.Import{{Kind: firmware.ImportLib, Target: "mathlib", Entry: "id"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				start := ctx.Now()
				for i := 0; i < n; i++ {
					ctx.LibCall("mathlib", "id", api.W(7))
				}
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	bootBench(tb, img)
	return cycles
}

// BenchmarkFig6a_LibraryCall measures a shared-library call through its
// sentry, for contrast with full compartment calls.
func BenchmarkFig6a_LibraryCall(b *testing.B) {
	b.ReportMetric(float64(libCallCycles(b, b.N))/float64(b.N), "simcycles/call")
}

// irqLatencyCycles reproduces the paper's interrupt-latency measurement
// over n interrupts and returns the summed latency: a high-priority
// thread requests a revoker interrupt and waits on its futex; a
// low-priority thread continuously records the current timestamp; the
// latency is the gap between the last low-priority timestamp and the
// high-priority thread running again.
func irqLatencyCycles(tb testing.TB, n int) uint64 {
	var total uint64
	var lowStamp uint64
	benchDone := false

	// A small SRAM keeps the revocation sweep (and thus each iteration)
	// short; the latency path itself is size-independent.
	img := core.NewImage("fig6a-irq")
	img.SRAM = 32 * 1024
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256, DataSize: 16,
		Imports: append(sched.Imports(),
			firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceRevoker}),
		Exports: []*firmware.Export{
			{Name: "high", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					defer func() { benchDone = true }()
					rets, err := ctx.Call(sched.Name, sched.EntryIRQFutex, api.W(uint32(hw.IRQRevoker)))
					if err != nil || api.ErrnoOf(rets) != api.OK {
						tb.Error("irq_futex failed")
						return nil
					}
					word := rets[1].Cap
					mmio := ctx.MMIO(firmware.DeviceRevoker)
					for i := 0; i < n; i++ {
						seen := ctx.Load32(word)
						// 1) ask the revoker for an interrupt,
						ctx.Store32(mmio.WithAddress(hw.RevokerBase+hw.RevokerGo), 1)
						// 2) wait on its interrupt futex.
						rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
							api.C(word), api.W(seen), api.W(0))
						if err != nil || api.ErrnoOf(rets) != api.OK {
							tb.Error("futex_wait failed")
							return nil
						}
						// 4) awake: the latency is now minus the low-prio
						// thread's last timestamp.
						total += ctx.Now() - lowStamp
					}
					return nil
				}},
			{Name: "low", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					// 3) constantly record the current timestamp.
					for !benchDone {
						lowStamp = ctx.Now()
						ctx.Work(8)
					}
					return nil
				}},
		},
	})
	img.AddThread(&firmware.Thread{Name: "high", Compartment: "bench", Entry: "high",
		Priority: 9, StackSize: 4096, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "low", Compartment: "bench", Entry: "low",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	bootBench(tb, img)
	return total
}

// BenchmarkFig6a_InterruptLatency measures the interrupt latency of
// irqLatencyCycles. Fig. 6a: 1028 cycles on average.
func BenchmarkFig6a_InterruptLatency(b *testing.B) {
	per := float64(irqLatencyCycles(b, b.N)) / float64(b.N)
	b.ReportMetric(per, "simcycles/irq")
	printOnce("fig6a-irq", fmt.Sprintf(
		"\nFig. 6a — interrupt latency: %.1f cycles (paper: 1028, typical RTOS range 500-1500)\n", per))
}

// BenchmarkFig6b_AllocatorThroughput sweeps allocation sizes and reports
// sustained allocator throughput, reproducing Fig. 6b's regimes: call-
// dominated growth below 32 KiB, the revoker bottleneck above, and the
// pathological two-object and one-object plateaus past 80 and 112 KiB.
func BenchmarkFig6b_AllocatorThroughput(b *testing.B) {
	sizes := []uint32{
		16, 64, 256, 1024, 4096, 16384, 32768, 49152, 65536, 98304, 114688,
	}
	printOnce("fig6b-head", "\nFig. 6b — sustained allocation rate vs size (paper: ~5 MiB/s at >1 KiB,\n"+
		"rising to a peak, then revoker-bound decline past 32 KiB):\n")
	for _, size := range sizes {
		size := size
		b.Run(fmt.Sprintf("size_%dB", size), func(b *testing.B) {
			var cycles, bytes uint64
			for rep := 0; rep < b.N; rep++ {
				img := core.NewImage("fig6b")
				heapQuota := uint32(230 * 1024)
				img.AddCompartment(&firmware.Compartment{
					Name: "bench", CodeSize: 256, DataSize: 0,
					AllocCaps: []firmware.AllocCap{{Name: "default", Quota: heapQuota}},
					Imports:   alloc.Imports(),
					Exports: []*firmware.Export{{Name: "main", MinStack: 512,
						Entry: func(ctx api.Context, args []api.Value) []api.Value {
							cl := alloc.Client{}
							// Total allocation volume: 8x the heap (§5.3.2).
							heap := uint32(220 * 1024)
							iters := int(heap) * 8 / int(size)
							start := ctx.Now()
							for i := 0; i < iters; i++ {
								obj, errno := cl.Malloc(ctx, size)
								if errno != api.OK {
									b.Errorf("malloc(%d) #%d: %v", size, i, errno)
									return nil
								}
								ctx.Store32(obj, uint32(i)) // touch it
								if e := cl.Free(ctx, obj); e != api.OK {
									b.Errorf("free: %v", e)
									return nil
								}
							}
							cycles += ctx.Now() - start
							bytes += uint64(iters) * uint64(size)
							return nil
						}}},
				})
				img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
					Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
				bootBench(b, img)
			}
			secs := float64(cycles) / float64(hw.DefaultHz)
			mibps := float64(bytes) / (1 << 20) / secs
			b.ReportMetric(mibps, "sim-MiB/s")
			b.ReportMetric(float64(cycles)/float64(bytes)*float64(size), "simcycles/alloc")
			printOnce(fmt.Sprintf("fig6b-%d", size),
				fmt.Sprintf("  %8d B  %8.2f MiB/s\n", size, mibps))
		})
	}
}
