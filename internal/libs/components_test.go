package libs_test

import (
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/libs"
)

func TestConsoleCompartment(t *testing.T) {
	img := core.NewImage("console")
	libs.AddConsoleTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Imports: libs.ConsoleImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if e := libs.Print(ctx, "hello from a compartment"); e != api.OK {
					t.Errorf("Print: %v", e)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if got := s.Board.UART.Output(); got != "hello from a compartment\n" {
		t.Fatalf("UART output = %q", got)
	}
	// Only the console compartment holds the UART window; the audit
	// report proves it.
	for name, c := range s.Report.Compartments {
		for _, im := range c.Imports {
			if im.Kind == "mmio" && im.Target == firmware.DeviceUART && name != libs.Console {
				t.Fatalf("compartment %s has direct UART access", name)
			}
		}
	}
}

func TestConsoleRejectsOversizedBuffer(t *testing.T) {
	img := core.NewImage("console-harden")
	libs.AddConsoleTo(img)
	var errno api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Imports: libs.ConsoleImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				big := ctx.StackAlloc(1024) // over the console's 512 limit
				rets, err := ctx.Call(libs.Console, libs.FnConsoleWrite, api.C(big))
				if err != nil {
					t.Errorf("call: %v", err)
					return nil
				}
				errno = api.ErrnoOf(rets)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 8192, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if errno != api.ErrInvalid {
		t.Fatalf("oversized write = %v, want invalid", errno)
	}
}

func TestThreadPoolRunsJobs(t *testing.T) {
	img := core.NewImage("pool")
	done := map[string]int{}
	addWork := func(name string, work uint64) {
		img.AddCompartment(&firmware.Compartment{
			Name: name, CodeSize: 128, DataSize: 0,
			Exports: []*firmware.Export{{Name: "run", MinStack: 256,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Work(work)
					done[name]++
					return api.EV(api.OK)
				}}},
		})
	}
	addWork("taskA", 5000)
	addWork("taskB", 100)
	pool := &libs.Pool{
		Jobs:    []libs.Job{{Target: "taskA", Entry: "run"}, {Target: "taskB", Entry: "run"}},
		Workers: 2,
	}
	pool.AddTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Imports: libs.PoolImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 3; i++ {
					if rets, err := ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(0)); err != nil || api.ErrnoOf(rets) != api.OK {
						t.Errorf("dispatch A: %v", err)
					}
					if rets, err := ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(1)); err != nil || api.ErrnoOf(rets) != api.OK {
						t.Errorf("dispatch B: %v", err)
					}
				}
				// Unknown job index is refused.
				rets, err := ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(99))
				if err != nil || api.ErrnoOf(rets) != api.ErrNotFound {
					t.Errorf("bad dispatch: %v %v", err, rets)
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 5, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if done["taskA"] != 3 || done["taskB"] != 3 {
		t.Fatalf("jobs done = %v", done)
	}
	if n := libs.PoolCompleted(s.Kernel); n != 6 {
		t.Fatalf("pool completed = %d", n)
	}
	// The pool's import table lists exactly its dispatch targets — the
	// audit story for "what can the pool run?".
	var targets []string
	for _, im := range s.Report.Compartments[libs.ThreadPool].Imports {
		if im.Kind == "call" && im.Target != "sched" {
			targets = append(targets, im.Target+"."+im.Entry)
		}
	}
	joined := strings.Join(targets, ",")
	if !strings.Contains(joined, "taskA.run") || !strings.Contains(joined, "taskB.run") {
		t.Fatalf("pool imports = %v", targets)
	}
}

func TestThreadPoolSurvivesFaultingJob(t *testing.T) {
	img := core.NewImage("pool-fault")
	good := 0
	img.AddCompartment(&firmware.Compartment{
		Name: "bomb", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "run", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				ctx.Fault(hw.TrapIllegalInstruction, "boom")
				return nil
			}}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "fine", CodeSize: 128, DataSize: 0,
		Exports: []*firmware.Export{{Name: "run", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				good++
				return api.EV(api.OK)
			}}},
	})
	pool := &libs.Pool{
		Jobs:    []libs.Job{{Target: "bomb", Entry: "run"}, {Target: "fine", Entry: "run"}},
		Workers: 1,
	}
	pool.AddTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128, DataSize: 0,
		Imports: libs.PoolImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				// A faulting job must not take the worker down.
				_, _ = ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(0))
				_, _ = ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(1))
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 5, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if good != 1 {
		t.Fatalf("good job ran %d times; the faulting job killed the worker", good)
	}
	if n := libs.PoolCompleted(s.Kernel); n != 2 {
		t.Fatalf("completed = %d, want 2 (fault contained, both jobs processed)", n)
	}
}

// TestPoolCompletedReadsItsMachine: one pool image booted as two
// machines counts each machine's jobs on that machine, so running only
// the first through three jobs leaves the second at zero.
func TestPoolCompletedReadsItsMachine(t *testing.T) {
	img := core.NewImage("pool-two-machines")
	img.AddCompartment(&firmware.Compartment{
		Name: "work", CodeSize: 128,
		Exports: []*firmware.Export{{Name: "run", MinStack: 128,
			Entry: func(ctx api.Context, args []api.Value) []api.Value { return api.EV(api.OK) }}},
	})
	(&libs.Pool{Jobs: []libs.Job{{Target: "work", Entry: "run"}}, Workers: 1}).AddTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 128,
		Imports: libs.PoolImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				for i := 0; i < 3; i++ {
					if rets, err := ctx.Call(libs.ThreadPool, libs.FnPoolDispatch, api.W(0)); err != nil || api.ErrnoOf(rets) != api.OK {
						t.Errorf("dispatch: %v %v", err, rets)
					}
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "app", Entry: "main",
		Priority: 5, StackSize: 2048, TrustedStackFrames: 8})
	first, second := boot(t, img), boot(t, img)
	run(t, first)
	if got := [2]int{libs.PoolCompleted(first.Kernel), libs.PoolCompleted(second.Kernel)}; got != [2]int{3, 0} {
		t.Fatalf("completed on the run and the idle machine = %v, want [3 0]", got)
	}
}
