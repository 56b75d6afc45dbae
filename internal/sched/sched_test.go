package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/sched"
)

func boot(t *testing.T, img *firmware.Image) *core.System {
	t.Helper()
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// addApp builds one compartment with the scheduler imports and the given
// entries.
func addApp(img *firmware.Image, exports ...*firmware.Export) {
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		Imports: sched.Imports(),
		Exports: exports,
	})
}

func thread(img *firmware.Image, name, entry string, prio int) {
	img.AddThread(&firmware.Thread{Name: name, Compartment: "app", Entry: entry,
		Priority: prio, StackSize: 2048, TrustedStackFrames: 8})
}

// wakeImage builds three equal-priority waiters on one futex word, in
// the order w1, w2, w3, and a lower-priority waker that wakes n of them
// (^0: all). Every waiter that returns OK appends its thread ID to woken,
// and the waker stores what futex_wake reported in reported.
func wakeImage(t *testing.T, n uint32, woken *[]int, reported *uint32) *firmware.Image {
	img := core.NewImage("wake")
	waiter := &firmware.Export{Name: "waiter", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			word := ctx.Globals().WithAddress(ctx.Globals().Base())
			rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
				api.C(word), api.W(0), api.W(0))
			if err == nil && api.ErrnoOf(rets) == api.OK {
				*woken = append(*woken, ctx.ThreadID())
			}
			return nil
		}}
	waker := &firmware.Export{Name: "waker", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			word := ctx.Globals().WithAddress(ctx.Globals().Base())
			ctx.Yield() // let all three waiters park
			ctx.Yield()
			ctx.Store32(word, 1)
			rets, err := ctx.Call(sched.Name, sched.EntryFutexWake, api.C(word), api.W(n))
			if err != nil || len(rets) == 0 {
				t.Errorf("wake: %v %v", err, rets)
				return nil
			}
			*reported = rets[0].AsWord()
			return nil
		}}
	addApp(img, waiter, waker)
	thread(img, "w1", "waiter", 5)
	thread(img, "w2", "waiter", 5)
	thread(img, "w3", "waiter", 5)
	thread(img, "waker", "waker", 1)
	return img
}

// TestFutexWakeCount: wake(n) wakes the first n waiters in queue order;
// the rest keep sleeping until woken.
func TestFutexWakeCount(t *testing.T) {
	var woken []int
	var reported uint32
	s := boot(t, wakeImage(t, 2, &woken, &reported))
	// The third waiter never wakes: the run ends in a deadlock report,
	// which is expected for this scenario.
	err := s.Run(nil)
	if err == nil {
		t.Fatal("expected a reported deadlock for the unwoken waiter")
	}
	if reported != 2 {
		t.Fatalf("futex_wake reported %d, want 2", reported)
	}
	want := []int{s.Kernel.Thread("w1").ID, s.Kernel.Thread("w2").ID}
	if !slices.Equal(woken, want) {
		t.Fatalf("woke threads %v, want w1 and w2 %v", woken, want)
	}
}

// TestFutexWakeAll: wake(^0) wakes every waiter on the word, however
// many there are.
func TestFutexWakeAll(t *testing.T) {
	var woken []int
	var reported uint32
	s := boot(t, wakeImage(t, ^uint32(0), &woken, &reported))
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reported != 3 {
		t.Fatalf("futex_wake reported %d, want 3", reported)
	}
	want := []int{s.Kernel.Thread("w1").ID, s.Kernel.Thread("w2").ID, s.Kernel.Thread("w3").ID}
	if !slices.Equal(woken, want) {
		t.Fatalf("woke threads %v, want all three %v", woken, want)
	}
}

// TestFutexValueMismatchReturnsImmediately: compare-and-wait with a stale
// expectation does not sleep.
func TestFutexValueMismatchReturnsImmediately(t *testing.T) {
	img := core.NewImage("mismatch")
	var errno api.Errno
	addApp(img, &firmware.Export{Name: "main", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			word := ctx.Globals().WithAddress(ctx.Globals().Base())
			ctx.Store32(word, 7)
			rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
				api.C(word), api.W(3), api.W(0)) // expects 3, word holds 7
			if err != nil {
				t.Errorf("wait: %v", err)
				return nil
			}
			errno = api.ErrnoOf(rets)
			return nil
		}})
	thread(img, "t", "main", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errno != api.OK {
		t.Fatalf("errno = %v, want immediate OK", errno)
	}
}

// TestFutexRequiresLoadPermission: a capability without load permission
// is rejected, per the least-privilege futex contract (§3.2.4).
func TestFutexRequiresLoadPermission(t *testing.T) {
	img := core.NewImage("perm")
	var errno api.Errno
	addApp(img, &firmware.Export{Name: "main", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			g := ctx.Globals()
			noload, _ := g.WithoutPerms(0xffff) // strip everything
			rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
				api.C(noload), api.W(0), api.W(100))
			if err != nil {
				t.Errorf("wait: %v", err)
				return nil
			}
			errno = api.ErrnoOf(rets)
			return nil
		}})
	thread(img, "t", "main", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errno != api.ErrInvalid {
		t.Fatalf("errno = %v, want invalid", errno)
	}
}

// TestSleepAdvancesTime: sleep suspends the thread for the requested
// cycles while the clock advances (the idle path).
func TestSleepAdvancesTime(t *testing.T) {
	img := core.NewImage("sleep")
	var before, after uint64
	addApp(img, &firmware.Export{Name: "main", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			before = ctx.Now()
			if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(1_000_000)); err != nil {
				t.Errorf("sleep: %v", err)
			}
			after = ctx.Now()
			return nil
		}})
	thread(img, "t", "main", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after-before < 1_000_000 {
		t.Fatalf("slept only %d cycles", after-before)
	}
	if s.Kernel.IdleCycles() == 0 {
		t.Fatal("idle accounting did not move during the sleep")
	}
}

// TestMultiwaitTimeout: a multiwait with no events times out.
func TestMultiwaitTimeout(t *testing.T) {
	img := core.NewImage("mw-timeout")
	var errno api.Errno
	addApp(img, &firmware.Export{Name: "main", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			g := ctx.Globals()
			w0 := g.WithAddress(g.Base())
			w1 := g.WithAddress(g.Base() + 4)
			rets, err := ctx.Call(sched.Name, sched.EntryMultiwait,
				api.W(50_000), api.C(w0), api.W(0), api.C(w1), api.W(0))
			if err != nil {
				t.Errorf("multiwait: %v", err)
				return nil
			}
			errno = api.ErrnoOf(rets)
			return nil
		}})
	thread(img, "t", "main", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errno != api.ErrTimeout {
		t.Fatalf("errno = %v, want timeout", errno)
	}
}

// TestMultiwaitImmediate: if a watched word already moved, multiwait
// reports it without sleeping.
func TestMultiwaitImmediate(t *testing.T) {
	img := core.NewImage("mw-now")
	var idx uint32 = 99
	addApp(img, &firmware.Export{Name: "main", MinStack: 512,
		Entry: func(ctx api.Context, args []api.Value) []api.Value {
			g := ctx.Globals()
			w0 := g.WithAddress(g.Base())
			w1 := g.WithAddress(g.Base() + 4)
			ctx.Store32(w1, 5)
			rets, err := ctx.Call(sched.Name, sched.EntryMultiwait,
				api.W(0), api.C(w0), api.W(0), api.C(w1), api.W(0))
			if err != nil || api.ErrnoOf(rets) < 0 {
				t.Errorf("multiwait: %v %v", err, rets)
				return nil
			}
			idx = rets[0].AsWord()
			return nil
		}})
	thread(img, "t", "main", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if idx != 1 {
		t.Fatalf("index = %d, want 1", idx)
	}
}

// TestHigherPriorityPreemptsOnWake: waking a higher-priority thread
// preempts the waker at its next preemption point.
func TestHigherPriorityPreemptsOnWake(t *testing.T) {
	img := core.NewImage("preempt-wake")
	var order []string
	addApp(img,
		&firmware.Export{Name: "high", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				word := ctx.Globals().WithAddress(ctx.Globals().Base())
				_, _ = ctx.Call(sched.Name, sched.EntryFutexWait, api.C(word), api.W(0), api.W(0))
				order = append(order, "high-woke")
				return nil
			}},
		&firmware.Export{Name: "low", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				word := ctx.Globals().WithAddress(ctx.Globals().Base())
				ctx.Yield()
				ctx.Store32(word, 1)
				_, _ = ctx.Call(sched.Name, sched.EntryFutexWake, api.C(word), api.W(1))
				ctx.Work(10) // preemption point
				order = append(order, "low-after-wake")
				return nil
			}},
	)
	thread(img, "high", "high", 9)
	thread(img, "low", "low", 1)
	s := boot(t, img)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "high-woke" {
		t.Fatalf("order = %v, want the high thread to run first after wake", order)
	}
}

// TestEarlyWokenTimerDoesNotEndLaterWait: a timed wait that is woken
// before its deadline leaves its timer behind; when the same thread then
// waits on another word, untimed or with a later deadline, that wait
// must end when its waker wakes it, not when the first wait's timer
// fires.
func TestEarlyWokenTimerDoesNotEndLaterWait(t *testing.T) {
	const firstTimeout = 200_000
	for _, tc := range []struct {
		name          string
		secondTimeout uint32
	}{
		{"untimed", 0},
		{"longer-timeout", 3 * firstTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := core.NewImage("stale-timer")
			var first, second api.Errno = 99, 99
			var wokeAt, returnedAt uint64
			words := func(ctx api.Context) (a, b cap.Capability) {
				g := ctx.Globals()
				return g.WithAddress(g.Base()), g.WithAddress(g.Base() + 4)
			}
			addApp(img,
				&firmware.Export{Name: "waiter", MinStack: 512,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						a, b := words(ctx)
						rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
							api.C(a), api.W(0), api.W(firstTimeout))
						if err != nil {
							t.Errorf("first wait: %v", err)
						}
						first = api.ErrnoOf(rets)
						rets, err = ctx.Call(sched.Name, sched.EntryFutexWait,
							api.C(b), api.W(0), api.W(tc.secondTimeout))
						if err != nil {
							t.Errorf("second wait: %v", err)
						}
						second = api.ErrnoOf(rets)
						returnedAt = ctx.Now()
						return nil
					}},
				&firmware.Export{Name: "waker", MinStack: 512,
					Entry: func(ctx api.Context, args []api.Value) []api.Value {
						a, b := words(ctx)
						ctx.Store32(a, 1)
						if _, err := ctx.Call(sched.Name, sched.EntryFutexWake, api.C(a), api.W(1)); err != nil {
							t.Errorf("first wake: %v", err)
						}
						// Sleep past the first wait's deadline, so its timer
						// fires while the waiter sits in the second wait.
						if _, err := ctx.Call(sched.Name, sched.EntrySleep, api.W(2*firstTimeout)); err != nil {
							t.Errorf("sleep: %v", err)
						}
						wokeAt = ctx.Now()
						ctx.Store32(b, 1)
						if _, err := ctx.Call(sched.Name, sched.EntryFutexWake, api.C(b), api.W(1)); err != nil {
							t.Errorf("second wake: %v", err)
						}
						return nil
					}},
			)
			thread(img, "waiter", "waiter", 2)
			thread(img, "waker", "waker", 1)
			s := boot(t, img)
			if err := s.Run(nil); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if first != api.OK || second != api.OK {
				t.Fatalf("waits returned %v then %v, want OK twice", first, second)
			}
			if returnedAt < wokeAt {
				t.Fatalf("the second wait returned at cycle %d, before its wake at %d: the first wait's timer ended it",
					returnedAt, wokeAt)
			}
		})
	}
}

// TestWaitsAllocateNothing pins the scheduler's wait paths at zero host
// allocations per wait: each thread reuses its one waiter, a timeout is
// armed with the waiter's generation instead of a closure, a word's queue
// keeps its slice, and the errno returns are shared.
func TestWaitsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait func(ctx api.Context, word cap.Capability) ([]api.Value, error)
		want api.Errno
	}{
		{"futex-wait-returns-at-once", func(ctx api.Context, word cap.Capability) ([]api.Value, error) {
			return ctx.Call(sched.Name, sched.EntryFutexWait, api.C(word), api.W(1), api.W(0))
		}, api.OK},
		{"timed-wait-times-out", func(ctx api.Context, word cap.Capability) ([]api.Value, error) {
			return ctx.Call(sched.Name, sched.EntryFutexWait, api.C(word), api.W(0), api.W(1000))
		}, api.ErrTimeout},
		{"sleep", func(ctx api.Context, _ cap.Capability) ([]api.Value, error) {
			return ctx.Call(sched.Name, sched.EntrySleep, api.W(1000))
		}, api.OK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := core.NewImage("wait-allocs")
			var allocs float64
			var failure error
			addApp(img, &firmware.Export{Name: "main", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					word := ctx.Globals().WithAddress(ctx.Globals().Base())
					allocs = testing.AllocsPerRun(100, func() {
						rets, err := tc.wait(ctx, word)
						if err == nil && api.ErrnoOf(rets) != tc.want {
							err = fmt.Errorf("the wait returned %v, want %v", api.ErrnoOf(rets), tc.want)
						}
						if err != nil {
							failure = err
						}
					})
					return nil
				}})
			thread(img, "t", "main", 1)
			s := boot(t, img)
			if err := s.Run(nil); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if failure != nil {
				t.Fatal(failure)
			}
			if allocs != 0 {
				t.Fatalf("a wait allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
