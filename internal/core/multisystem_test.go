package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// TestSystemsRunConcurrently boots several independent Systems and runs
// them on parallel goroutines with telemetry enabled. Everything mutable
// in the switcher and telemetry layers must be per-System (no
// process-global counters or accounts), so this passes under -race and
// every System sees exactly its own activity. This is the regression
// test behind the fleet simulator, which runs thousands of Systems on a
// worker pool.
//
// Half the Systems run in slices, as fleet devices do between run
// barriers: each Run ends on a thread coroutine, which hands the core
// back to the loop in Run, and the next Run dispatches from there again.
// A sliced System must end exactly where a whole run does.
func TestSystemsRunConcurrently(t *testing.T) {
	const systems = 4
	const iters = 50

	type result struct {
		calls     uint64
		cycles    uint64
		attr      uint64
		base      uint64
		compTotal uint64
	}
	results := make([]result, systems)

	var wg sync.WaitGroup
	for i := 0; i < systems; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			img := NewImage(fmt.Sprintf("multi-%d", i))
			img.AddCompartment(&firmware.Compartment{
				Name: "server", CodeSize: 512, DataSize: 64,
				Exports: []*firmware.Export{{
					Name: "work", MinStack: 128,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						// Systems 2k and 2k+1 run the same firmware,
						// whole and sliced.
						ctx.Work(uint64(100 * (i/2 + 1)))
						return api.EV(api.OK)
					},
				}},
			})
			img.AddCompartment(&firmware.Compartment{
				Name: "client", CodeSize: 512, DataSize: 64,
				Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "work"}},
				Exports: []*firmware.Export{{
					Name: "main", MinStack: 256,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						for n := 0; n < iters; n++ {
							if _, err := ctx.Call("server", "work"); err != nil {
								t.Errorf("system %d call %d: %v", i, n, err)
								return nil
							}
						}
						return nil
					},
				}},
			})
			img.AddThread(&firmware.Thread{Name: "main", Compartment: "client", Entry: "main",
				Priority: 1, StackSize: 1024, TrustedStackFrames: 4})

			s, err := BootWith(img, BootOptions{SkipReport: true})
			if err != nil {
				t.Errorf("system %d: Boot: %v", i, err)
				return
			}
			defer s.Shutdown()
			tel := s.EnableTelemetry(0)
			base := s.Cycles()
			if i%2 == 0 {
				err = s.Run(nil)
			} else {
				// Slices of a few hundred cycles end mid-call, mid-work
				// and between dispatches.
				slice := uint64(97 * (i + 1))
				for err == nil && s.Kernel.Thread("main").State() != switcher.StateExited {
					err = s.RunFor(slice)
				}
			}
			if err != nil {
				t.Errorf("system %d: Run: %v", i, err)
				return
			}
			snap := tel.Snapshot()
			r := result{cycles: s.Cycles(), attr: snap.AttributedCycles, base: base}
			for _, c := range snap.Counters {
				if c.Compartment == "<switcher>" && c.Metric == "compartment_calls" {
					r.calls = uint64(c.Value)
				}
			}
			for _, c := range snap.Compartments {
				r.compTotal += c.Cycles
			}
			results[i] = r
		}()
	}
	wg.Wait()

	for i, r := range results {
		if r.cycles == 0 {
			t.Fatalf("system %d did not run", i)
		}
		// Each System counts exactly its own cross-compartment calls:
		// iters client->server calls plus the thread-entry call. Shared
		// counters would show cross-talk here.
		if r.calls != iters+1 {
			t.Errorf("system %d: calls = %d, want %d", i, r.calls, iters+1)
		}
		// The attribution invariant holds per System even while others
		// run: every cycle since EnableTelemetry lands in exactly one
		// compartment account.
		if r.attr != r.cycles-r.base {
			t.Errorf("system %d: attributed %d != elapsed %d", i, r.attr, r.cycles-r.base)
		}
		if r.compTotal != r.attr {
			t.Errorf("system %d: compartment sum %d != attributed %d", i, r.compTotal, r.attr)
		}
		if i%2 == 1 && r != results[i-1] {
			t.Errorf("system %d (sliced) = %+v, system %d (whole) = %+v", i, r, i-1, results[i-1])
		}
	}
}

// TestBootOneImageTwice: Boot adds the TCB to a copy of the caller's
// image, so two Systems booted from one image are independent, and each
// runs the image's sleep to the cycle a single boot reaches, whichever
// runs first. Boot once added the TCB to the caller's image itself,
// bound to the first System's scheduler, allocator and token objects, so
// the second System's sleep went to the first System's scheduler.
func TestBootOneImageTwice(t *testing.T) {
	sleeper := func() *firmware.Image {
		img := NewImage("sleeper")
		img.AddCompartment(&firmware.Compartment{
			Name: "app", CodeSize: 256, DataSize: 16,
			Imports: sched.Imports(),
			Exports: []*firmware.Export{{Name: "main", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(100_000)); err != nil {
						t.Errorf("sleep: %v", err)
					}
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
			Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
		return img
	}
	run := func(s *System) uint64 {
		t.Helper()
		if err := s.Run(nil); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return s.Cycles()
	}
	want := run(boot(t, sleeper()))
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		img := sleeper()
		systems := [2]*System{boot(t, img), boot(t, img)}
		if n := len(img.Compartments); n != 1 {
			t.Errorf("Boot left %d compartments in the caller's image, want 1", n)
		}
		for _, i := range order {
			if got := run(systems[i]); got != want {
				t.Errorf("order %v: System %d ran %d cycles, a single boot %d", order, i, got, want)
			}
		}
	}
}
