package switcher_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// The kernel loop runs on the coroutine of whichever thread yields, and
// that thread hands the core back to Run only when another thread is
// picked or the run ends. These tests cover the ways a run ends from a
// thread coroutine: deadlock, a thread's panic, a panic in the loop
// itself, a stop that fires mid-run (and Runs sliced by it), and
// Shutdown after such a stop.

// word0 is the first word of the calling compartment's globals, the
// futex word the tests' threads share.
func word0(ctx api.Context) api.Value {
	g := ctx.Globals()
	return api.C(g.WithAddress(g.Base()))
}

// loopImage builds a three-thread workload that crosses every kernel-loop
// path: compartment calls, futex wait and wake, sleeps with idle skips,
// explicit yields, priority wake-ups, and quantum expiry.
func loopImage() *firmware.Image {
	img := core.NewImage("loop")
	img.AddCompartment(&firmware.Compartment{
		Name: "svc", CodeSize: 128,
		Exports: []*firmware.Export{{Name: "work", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(3000)
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 16,
		Imports: append(sched.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: "svc", Entry: "work"}),
		Exports: []*firmware.Export{
			{Name: "ping", MinStack: 512, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 20; i++ {
					_, _ = ctx.Call("svc", "work")
					ctx.Store32(word0(ctx).Cap, uint32(i+1))
					_, _ = ctx.Call(sched.Name, sched.EntryFutexWake, word0(ctx), api.W(1))
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(20_000))
				}
				return nil
			}},
			{Name: "pong", MinStack: 512, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 20; i++ {
					seen := ctx.Load32(word0(ctx).Cap)
					_, _ = ctx.Call(sched.Name, sched.EntryFutexWait, word0(ctx), api.W(seen), api.W(50_000))
					ctx.Work(40_000)
					ctx.Yield()
				}
				return nil
			}},
			{Name: "bg", MinStack: 512, Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 30; i++ {
					ctx.Work(60_000)
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(5_000))
				}
				return nil
			}},
		},
	})
	for _, th := range []struct {
		name string
		prio int
	}{{"ping", 2}, {"pong", 2}, {"bg", 1}} {
		img.AddThread(&firmware.Thread{Name: th.name, Compartment: "app", Entry: th.name,
			Priority: th.prio, StackSize: 2048, TrustedStackFrames: 8})
	}
	return img
}

// shutdownWithin runs Shutdown and fails the test if it does not return
// in time, having killed every thread.
func shutdownWithin(t *testing.T, s *core.System) {
	t.Helper()
	joined := make(chan struct{})
	go func() {
		s.Shutdown()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	for _, th := range s.Kernel.Threads() {
		if th.State() != switcher.StateExited {
			t.Errorf("thread %s is %v after Shutdown, want exited", th.Name, th.State())
		}
	}
}

// recoverRun runs s to completion and returns what Run panicked with
// (nil if it returned).
func recoverRun(s *core.System, stop func() bool) (panicked interface{}, err error) {
	defer func() { panicked = recover() }()
	return nil, s.Run(stop)
}

// TestRunSlicedMatchesWhole: a Run stopped and re-entered at several
// points must be the same machine as one Run to completion — the same
// clock, kernel Stats, and trace ring. Each re-entry dispatches from
// Run again, and the thread that ended the previous slice stays
// suspended until it is picked.
func TestRunSlicedMatchesWhole(t *testing.T) {
	whole := boot(t, loopImage())
	whole.EnableTelemetry(4096)
	run(t, whole)
	if st := whole.Kernel.Stats(); st.ContextSwitches < 50 || st.IdleCycles == 0 {
		t.Fatalf("workload too tame to cover the loop: %+v", st)
	}

	for _, step := range []uint64{1, 7_777, 100_003, 1_000_000} {
		t.Run(fmt.Sprintf("every%d", step), func(t *testing.T) {
			s := boot(t, loopImage())
			s.EnableTelemetry(4096)
			slices := 0
			for {
				slices++
				if err := s.RunFor(step); err != nil {
					t.Fatalf("slice %d: %v", slices, err)
				}
				done := true
				for _, th := range s.Kernel.Threads() {
					done = done && th.State() == switcher.StateExited
				}
				if done {
					break
				}
			}
			if slices < 2 {
				t.Fatalf("ran in %d slice(s); the stop never fired mid-run", slices)
			}
			if got, want := s.Cycles(), whole.Cycles(); got != want {
				t.Errorf("clock = %d after %d slices, want %d", got, slices, want)
			}
			if got, want := s.Kernel.Stats(), whole.Kernel.Stats(); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
			if got, want := s.Telemetry().Ring().Events(), whole.Telemetry().Ring().Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("trace ring differs: %d events, want %d", len(got), len(want))
			}
		})
	}
}

// TestShutdownAfterMidRunStop: a stop that fires mid-run leaves threads
// parked in every state — blocked, preempted, and never dispatched — and
// Shutdown must kill and join all of them. One of them is blocked in two
// compartments with error handlers, inside two nested During scopes in
// each: the kill unwinds all of it as one panic, so it runs each level's
// deferred cleanup once, takes no handler, emits no event and ticks no
// cycle.
func TestShutdownAfterMidRunStop(t *testing.T) {
	img := loopImage()
	lateRan := false
	img.AddCompartment(&firmware.Compartment{
		Name: "late", CodeSize: 64,
		Exports: []*firmware.Export{{Name: "main", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				lateRan = true
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "late", Compartment: "late", Entry: "main",
		Priority: 0, StackSize: 1024, TrustedStackFrames: 4})
	cleanups, handled := map[string]int{}, 0
	nested := func(comp string, body func(ctx api.Context)) api.Entry {
		return func(ctx api.Context, args []api.Value) []api.Value {
			defer func() { cleanups[comp]++ }()
			ctx.During(func() {
				defer func() { cleanups[comp+"/during"]++ }()
				ctx.During(func() {
					defer func() { cleanups[comp+"/during/during"]++ }()
					body(ctx)
				}, func(*hw.Trap) { handled++ })
			}, func(*hw.Trap) { handled++ })
			return nil
		}
	}
	handler := func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
		handled++
		return api.HandlerRetry
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "inner", CodeSize: 128, DataSize: 16, ErrorHandler: handler,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "wait", MinStack: 256,
			Entry: nested("inner", func(ctx api.Context) {
				// Nothing wakes inner's futex word: the thread blocks
				// here until the kill.
				_, _ = ctx.Call(sched.Name, sched.EntryFutexWait, word0(ctx), api.W(0), api.W(0))
			})}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "outer", CodeSize: 128, ErrorHandler: handler,
		Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "inner", Entry: "wait"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: nested("outer", func(ctx api.Context) { _, _ = ctx.Call("inner", "wait") })}},
	})
	img.AddThread(&firmware.Thread{Name: "nested", Compartment: "outer", Entry: "main",
		Priority: 3, StackSize: 2048, TrustedStackFrames: 8})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	tel := s.EnableTelemetry(4096)
	for _, at := range []uint64{50_000, 90_000} {
		if err := s.Run(func() bool { return s.Cycles() >= at }); err != nil {
			t.Fatalf("Run to %d: %v", at, err)
		}
	}
	want := map[string]switcher.ThreadState{
		"ping": switcher.StateBlocked, "pong": switcher.StateReady,
		"bg": switcher.StateReady, "late": switcher.StateReady,
		"nested": switcher.StateBlocked,
	}
	for name, st := range want {
		if got := s.Kernel.Thread(name).State(); got != st {
			t.Errorf("thread %s is %v at the stop, want %v", name, got, st)
		}
	}
	if lateRan {
		t.Error("the lowest-priority thread was dispatched before the stop")
	}
	if len(cleanups) != 0 {
		t.Fatalf("cleanups ran before the kill: %v", cleanups)
	}
	cycles, before, traced := s.Cycles(), tel.Snapshot(), len(tel.Ring().Events())
	shutdownWithin(t, s)
	for _, comp := range []string{"outer", "inner"} {
		for _, level := range []string{comp, comp + "/during", comp + "/during/during"} {
			if n := cleanups[level]; n != 1 {
				t.Errorf("the kill ran %s's cleanup %d times, want once", level, n)
			}
		}
	}
	if handled != 0 {
		t.Errorf("the kill took an error handler or During handler %d times", handled)
	}
	if got := s.Cycles(); got != cycles {
		t.Errorf("the kill ticked %d cycles", got-cycles)
	}
	if after := tel.Snapshot(); !reflect.DeepEqual(after, before) || len(tel.Ring().Events()) != traced {
		t.Error("the kill emitted events: the telemetry snapshot or trace ring changed")
	}
}

// TestRunReportsDeadlock: threads that wait forever with no device event
// pending end the run with ErrDeadlock naming each of them. The run ends
// on the coroutine of the last thread to block, and Shutdown still kills
// every thread.
func TestRunReportsDeadlock(t *testing.T) {
	img := core.NewImage("deadlock")
	wait := func(ctx api.Context, args []api.Value) []api.Value {
		_, _ = ctx.Call(sched.Name, sched.EntryFutexWait, word0(ctx), api.W(0), api.W(0))
		return nil
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 16,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{{Name: "wait", MinStack: 512, Entry: wait}},
	})
	for _, name := range []string{"a", "b"} {
		img.AddThread(&firmware.Thread{Name: name, Compartment: "app", Entry: "wait",
			Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	}
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	err = s.Run(nil)
	if !errors.Is(err, switcher.ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	for _, name := range []string{"a (in sched)", "b (in sched)"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("deadlock report %q does not name %s", err, name)
		}
	}
	shutdownWithin(t, s)
}

// TestThreadPanicSurfacesOnCaller: a non-trap panic in compartment code
// is a simulator bug; Run re-raises it on its caller.
func TestThreadPanicSurfacesOnCaller(t *testing.T) {
	img := loopImage()
	img.AddCompartment(&firmware.Compartment{
		Name: "buggy", CodeSize: 128,
		Exports: []*firmware.Export{{Name: "main", MinStack: 64,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Work(200_000)
				panic("simulator bug")
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "buggy", Compartment: "buggy", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	panicked, err := recoverRun(s, nil)
	perr, ok := panicked.(error)
	if !ok || !strings.Contains(perr.Error(), `thread "buggy" panicked: simulator bug`) {
		t.Fatalf("Run panicked with %v (err %v), want the buggy thread's panic", panicked, err)
	}
	shutdownWithin(t, s)
}

// TestLoopPanicSurfacesOnCaller: a panic raised inside the kernel loop —
// in stop, or in a device event that the loop's own ticks fire — happens
// on the coroutine of the thread that yielded. It must surface as Run's
// panic on the caller, unchanged, and must not unwind through that
// thread's compartment frames: even a trap-typed value is never taken
// for a fault of the compartment the thread yielded in. Shutdown must
// still kill the thread, whatever state the panic caught it in.
func TestLoopPanicSurfacesOnCaller(t *testing.T) {
	bomb := &hw.Trap{Code: hw.TrapBoundsViolation, Detail: "raised by the kernel loop"}
	cases := []struct {
		name string
		// sleep makes the thread sleep between yields; without it the
		// thread only yields, so the clock moves only in the loop's
		// post-yield accounting.
		sleep bool
		// arm returns the stop function; inLoop reports, at the panic,
		// that the loop is running on the thread's coroutine.
		arm func(s *core.System, inLoop func() bool) func() bool
	}{
		{"stop", true, func(s *core.System, inLoop func() bool) func() bool {
			return func() bool {
				if inLoop() {
					panic(bomb)
				}
				return false
			}
		}},
		{"idle-skip-event", true, func(s *core.System, inLoop func() bool) func() bool {
			s.Board.Core.At(s.Cycles()+20_000, func() {
				if inLoop() && s.Kernel.Thread("t").State() == switcher.StateBlocked {
					panic(bomb) // fired by the idle skip: the only thread sleeps
				}
			})
			return nil
		}},
		{"post-yield-event", false, func(s *core.System, inLoop func() bool) func() bool {
			s.Board.Core.At(s.Cycles()+20_000, func() {
				if inLoop() && s.Kernel.Thread("t").State() == switcher.StateRunning {
					panic(bomb) // fired by the trap-entry charge of a Yield
				}
			})
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			handled, yields := 0, 0
			img := core.NewImage("loop-panic")
			img.AddCompartment(&firmware.Compartment{
				Name: "app", CodeSize: 128,
				Imports: sched.Imports(),
				ErrorHandler: func(ctx api.Context, tr *hw.Trap) api.HandlerDecision {
					handled++
					return api.HandlerUnwind
				},
				Exports: []*firmware.Export{{Name: "main", MinStack: 512,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						for i := 0; i < 1000; i++ {
							if tc.sleep {
								_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(5_000))
							}
							yields++
							ctx.Yield()
						}
						return nil
					}}},
			})
			img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
				Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
			s, err := core.Boot(img)
			if err != nil {
				t.Fatalf("Boot: %v", err)
			}
			tel := s.EnableTelemetry(0)
			rec := s.EnableFlightRecorder(64)
			// Past the first dispatch, which Run makes itself, the loop
			// runs on the thread's coroutine.
			stop := tc.arm(s, func() bool { return yields >= 3 })

			panicked, err := recoverRun(s, stop)
			if panicked != bomb {
				t.Fatalf("Run panicked with %v (err %v), want the loop's own panic value", panicked, err)
			}
			if handled != 0 {
				t.Errorf("the compartment's error handler ran %d times for a loop panic", handled)
			}
			if n := rec.ReportsTotal(); n != 0 {
				t.Errorf("flight recorder filed %d crash reports for a loop panic", n)
			}
			for _, c := range tel.Snapshot().Counters {
				if c.Metric == "traps" && c.Value != 0 {
					t.Errorf("%s counted %d traps for a loop panic", c.Compartment, c.Value)
				}
			}
			if f := s.Kernel.Thread("t").ExitFault(); f != nil {
				t.Errorf("thread exit fault = %v, want none", f)
			}
			shutdownWithin(t, s)
		})
	}
}

// TestKernelsShareOnePool: two machines driven in turn through one pool.
// The first is stopped mid-run with every thread bound to a runner, and
// its Shutdown gives them back; the second runs to completion on them
// and starts no runner of its own. Each machine's clock, Stats and trace
// ring equal those of the same run on a private pool.
func TestKernelsShareOnePool(t *testing.T) {
	drive := []func(s *core.System) error{
		func(s *core.System) error { return s.RunFor(300_000) },
		func(s *core.System) error { return s.Run(nil) },
	}
	var pool switcher.Pool
	defer pool.Close()
	for i, run := range drive {
		alone, shared := boot(t, loopImage()), boot(t, loopImage())
		shared.Kernel.SetPool(&pool)
		for _, s := range []*core.System{alone, shared} {
			s.EnableTelemetry(4096)
			if err := run(s); err != nil {
				t.Fatalf("machine %d: Run: %v", i, err)
			}
			for _, th := range s.Kernel.Threads() {
				if i == 0 && th.State() == switcher.StateExited {
					t.Fatalf("thread %s exited before the first machine's stop", th.Name)
				}
			}
			shutdownWithin(t, s)
		}
		if got, want := pool.Runners(), len(shared.Kernel.Threads()); got != want {
			t.Errorf("after machine %d the pool has started %d runners, want one per thread of the first (%d)", i, got, want)
		}
		if got, want := shared.Cycles(), alone.Cycles(); got != want {
			t.Errorf("machine %d: clock = %d on the shared pool, want %d", i, got, want)
		}
		if got, want := shared.Kernel.Stats(), alone.Kernel.Stats(); got != want {
			t.Errorf("machine %d: stats = %+v on the shared pool, want %+v", i, got, want)
		}
		if got, want := shared.Telemetry().Ring().Events(), alone.Telemetry().Ring().Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("machine %d: trace ring differs on the shared pool: %d events, want %d", i, len(got), len(want))
		}
	}
}
