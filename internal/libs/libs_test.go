package libs_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
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

func run(t *testing.T, s *core.System) {
	t.Helper()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestMutexMutualExclusion runs two threads incrementing a shared counter
// under the futex mutex; every increment must be exclusive despite
// preemption.
func TestMutexMutualExclusion(t *testing.T) {
	img := core.NewImage("mutex")
	libs.AddLocksTo(img)
	var maxInCS, inCS int
	entry := func(ctx api.Context, args []api.Value) []api.Value {
		g := ctx.Globals()
		m := libs.Mutex{Word: g.WithAddress(g.Base())}
		counter := g.WithAddress(g.Base() + 4)
		for i := 0; i < 10; i++ {
			if e := m.Lock(ctx); e != api.OK {
				t.Errorf("lock: %v", e)
				return nil
			}
			inCS++
			if inCS > maxInCS {
				maxInCS = inCS
			}
			v := ctx.Load32(counter)
			ctx.Work(3000) // invite preemption inside the critical section
			ctx.Store32(counter, v+1)
			inCS--
			if e := m.Unlock(ctx); e != api.OK {
				t.Errorf("unlock: %v", e)
				return nil
			}
			ctx.Work(500)
		}
		return nil
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		Imports: libs.LockImports(),
		Exports: []*firmware.Export{{Name: "worker", MinStack: 512, Entry: entry}},
	})
	for _, n := range []string{"a", "b", "c"} {
		img.AddThread(&firmware.Thread{Name: n, Compartment: "app", Entry: "worker",
			Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	}
	s := boot(t, img)
	s.Sched.SetQuantum(2000) // aggressive preemption
	run(t, s)
	if maxInCS != 1 {
		t.Fatalf("max threads in critical section = %d, want 1", maxInCS)
	}
	comp := s.Kernel.Comp("app")
	word, err := s.Board.Core.Mem.Load32(comp.Globals().WithAddress(comp.Globals().Base() + 4))
	if err != nil {
		t.Fatal(err)
	}
	if word != 30 {
		t.Fatalf("counter = %d, want 30", word)
	}
}

// TestQueueLibraryTrusted exercises the in-compartment (trusting) queue:
// a producer and a consumer thread exchange records through a queue in
// compartment globals.
func TestQueueLibraryTrusted(t *testing.T) {
	img := core.NewImage("queue-lib")
	libs.AddQueueTo(img)
	var received []uint32
	qcap, qelem := uint32(4), uint32(8)
	comp := &firmware.Compartment{
		Name: "app", CodeSize: 512, DataSize: 256,
		Imports: libs.QueueImports(),
		Exports: []*firmware.Export{
			{Name: "producer", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					g := ctx.Globals()
					buf, _ := g.WithAddress(g.Base()).SetBounds(libs.QueueBytes(qcap, qelem))
					if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueInit,
						api.C(buf), api.W(qcap), api.W(qelem))); e != api.OK {
						t.Errorf("init: %v", e)
						return nil
					}
					elem := ctx.StackAlloc(qelem)
					for i := uint32(1); i <= 10; i++ {
						ctx.Store32(elem, i*i)
						if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueSend,
							api.C(buf), api.C(elem), api.W(0))); e != api.OK {
							t.Errorf("send %d: %v", i, e)
							return nil
						}
					}
					return nil
				}},
			{Name: "consumer", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					g := ctx.Globals()
					buf, _ := g.WithAddress(g.Base()).SetBounds(libs.QueueBytes(qcap, qelem))
					ctx.Yield() // let the producer initialize the queue
					out := ctx.StackAlloc(qelem)
					for i := 0; i < 10; i++ {
						if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueReceive,
							api.C(buf), api.C(out), api.W(0))); e != api.OK {
							t.Errorf("receive %d: %v", i, e)
							return nil
						}
						received = append(received, ctx.Load32(out))
					}
					return nil
				}},
		},
	}
	img.AddCompartment(comp)
	img.AddThread(&firmware.Thread{Name: "prod", Compartment: "app", Entry: "producer",
		Priority: 2, StackSize: 2048, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "cons", Compartment: "app", Entry: "consumer",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if len(received) != 10 {
		t.Fatalf("received %d messages", len(received))
	}
	for i, v := range received {
		want := uint32((i + 1) * (i + 1))
		if v != want {
			t.Fatalf("message %d = %d, want %d (FIFO violated)", i, v, want)
		}
	}
}

// TestHardenedQueueCompartment exercises the distrusting path: opaque
// handles, delegated quotas, and the guarantee that the handle holder
// cannot free or touch the buffer.
func TestHardenedQueueCompartment(t *testing.T) {
	img := core.NewImage("queue-comp")
	libs.AddQueueCompTo(img)
	var handle cap.Capability
	var got uint32
	var freeAttempt api.Errno
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 512, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports:   append(libs.QueueCompImports(), alloc.Imports()...),
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				mine := ctx.SealedImport("default")
				rets, err := ctx.Call(libs.QueueComp, libs.FnQCreate,
					api.C(mine), api.W(4), api.W(4))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("q_create: %v %v", err, rets)
					return nil
				}
				handle = rets[1].Cap
				// The handle is opaque: sealed, not directly usable.
				if !handle.Sealed() {
					t.Error("queue handle is not sealed")
				}
				// Freeing the buffer out from under the queue compartment
				// must fail even though our quota paid for it (§3.2.3):
				// plain heap_free refuses sealed allocations.
				freeAttempt = alloc.Client{}.Free(ctx, handle)

				elem := ctx.StackAlloc(4)
				ctx.Store32(elem, 4242)
				rets, err = ctx.Call(libs.QueueComp, libs.FnQSend,
					api.C(handle), api.C(elem), api.W(0))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("q_send: %v %v", err, rets)
					return nil
				}
				out := ctx.StackAlloc(4)
				rets, err = ctx.Call(libs.QueueComp, libs.FnQReceive,
					api.C(handle), api.C(out), api.W(0))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					t.Errorf("q_receive: %v %v", err, rets)
					return nil
				}
				got = ctx.Load32(out)
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 10})
	s := boot(t, img)
	run(t, s)
	if got != 4242 {
		t.Fatalf("round trip = %d, want 4242", got)
	}
	if freeAttempt == api.OK {
		t.Fatal("client freed the queue buffer out from under the queue compartment")
	}
}

// TestHardenedQueueDestroy: q_destroy gives a queue's buffer back to the
// quota that paid for it, so 200 create/destroy pairs fit a 4096-byte
// quota that holds about 100 live queues, and the quota ends where it
// began. A destroy presenting another quota is refused and the queue
// stays usable; a destroyed handle is dead to q_send and to a second
// q_destroy.
func TestHardenedQueueDestroy(t *testing.T) {
	img := core.NewImage("queue-destroy")
	libs.AddQueueCompTo(img)
	img.AddCompartment(&firmware.Compartment{
		Name: "client", CodeSize: 512, DataSize: 0,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}, {Name: "other", Quota: 4096}},
		Imports:   append(libs.QueueCompImports(), alloc.Imports()...),
		Exports: []*firmware.Export{{Name: "main", MinStack: 1024,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				mine, other := ctx.SealedImport("default"), ctx.SealedImport("other")
				call := func(fn string, args ...api.Value) []api.Value {
					rets, err := ctx.Call(libs.QueueComp, fn, args...)
					if err != nil {
						t.Errorf("%s: %v", fn, err)
						return api.EV(api.ErrInvalid)
					}
					return rets
				}
				create := func() (cap.Capability, api.Errno) {
					rets := call(libs.FnQCreate, api.C(mine), api.W(4), api.W(4))
					if e := api.ErrnoOf(rets); e != api.OK {
						return cap.Null(), e
					}
					return rets[1].Cap, api.OK
				}
				before, _ := alloc.Delegated(mine).QuotaRemaining(ctx)
				for i := 0; i < 200; i++ {
					h, e := create()
					if e != api.OK {
						t.Errorf("pair %d: q_create: %v", i, e)
						return nil
					}
					if e := api.ErrnoOf(call(libs.FnQDestroy, api.C(mine), api.C(h))); e != api.OK {
						t.Errorf("pair %d: q_destroy: %v", i, e)
						return nil
					}
				}
				if after, _ := alloc.Delegated(mine).QuotaRemaining(ctx); after != before {
					t.Errorf("quota after 200 create/destroy pairs: %d bytes left, began with %d", after, before)
				}

				h, e := create()
				if e != api.OK {
					t.Errorf("q_create: %v", e)
					return nil
				}
				elem := ctx.StackAlloc(4)
				if e := api.ErrnoOf(call(libs.FnQDestroy, api.C(other), api.C(h))); e == api.OK {
					t.Error("q_destroy freed a queue on a quota that did not pay for it")
				}
				if e := api.ErrnoOf(call(libs.FnQSend, api.C(h), api.C(elem), api.W(0))); e != api.OK {
					t.Errorf("q_send after a refused destroy: %v", e)
				}
				if e := api.ErrnoOf(call(libs.FnQDestroy, api.C(mine), api.C(h))); e != api.OK {
					t.Errorf("q_destroy: %v", e)
				}
				if e := api.ErrnoOf(call(libs.FnQSend, api.C(h), api.C(elem), api.W(0))); e == api.OK {
					t.Error("q_send accepted a destroyed handle")
				}
				if e := api.ErrnoOf(call(libs.FnQDestroy, api.C(mine), api.C(h))); e == api.OK {
					t.Error("a second q_destroy succeeded")
				}
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "client", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 10})
	run(t, boot(t, img))
}

// TestTicketLockFairness checks FIFO ordering of the ticket lock.
func TestTicketLockFairness(t *testing.T) {
	img := core.NewImage("ticket")
	libs.AddLocksTo(img)
	var order []string
	// Three threads grab tickets in priority order, then each releases
	// once; acquisitions must follow ticket order.
	holder := func(name string) api.Entry {
		return func(ctx api.Context, args []api.Value) []api.Value {
			g := ctx.Globals()
			word := g.WithAddress(g.Base())
			if e := api.ErrnoOf(ctx.LibCall(libs.LocksLib, libs.FnTicketLock, api.C(word))); e != api.OK {
				t.Errorf("%s lock: %v", name, e)
				return nil
			}
			order = append(order, name)
			ctx.Work(1000)
			if e := api.ErrnoOf(ctx.LibCall(libs.LocksLib, libs.FnTicketUnlock, api.C(word))); e != api.OK {
				t.Errorf("%s unlock: %v", name, e)
			}
			return nil
		}
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 16,
		Imports: libs.LockImports(),
		Exports: []*firmware.Export{
			{Name: "a", MinStack: 512, Entry: holder("a")},
			{Name: "b", MinStack: 512, Entry: holder("b")},
			{Name: "c", MinStack: 512, Entry: holder("c")},
		},
	})
	// Highest priority first: "a" takes ticket 0, "b" 1, "c" 2.
	img.AddThread(&firmware.Thread{Name: "a", Compartment: "app", Entry: "a",
		Priority: 3, StackSize: 2048, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "b", Compartment: "app", Entry: "b",
		Priority: 2, StackSize: 2048, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "c", Compartment: "app", Entry: "c",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("acquisition order = %v, want [a b c]", order)
	}
}

// TestMultiwaiter blocks one thread on two queues' futexes and checks it
// wakes for the one that fires.
func TestMultiwaiter(t *testing.T) {
	img := core.NewImage("multiwait")
	var wokenIndex uint32 = 99
	comp := &firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 32,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{
			{Name: "waiter", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					g := ctx.Globals()
					w0 := g.WithAddress(g.Base())
					w1 := g.WithAddress(g.Base() + 4)
					rets, err := ctx.Call(sched.Name, sched.EntryMultiwait,
						api.W(0), api.C(w0), api.W(0), api.C(w1), api.W(0))
					if err != nil {
						t.Errorf("multiwait: %v", err)
						return nil
					}
					wokenIndex = rets[0].AsWord()
					return nil
				}},
			{Name: "signaller", MinStack: 512,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					g := ctx.Globals()
					w1 := g.WithAddress(g.Base() + 4)
					ctx.Yield()
					ctx.Store32(w1, 7)
					if _, err := ctx.Call(sched.Name, sched.EntryFutexWake,
						api.C(w1), api.W(1)); err != nil {
						t.Errorf("wake: %v", err)
					}
					return nil
				}},
		},
	}
	img.AddCompartment(comp)
	img.AddThread(&firmware.Thread{Name: "w", Compartment: "app", Entry: "waiter",
		Priority: 2, StackSize: 2048, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "s", Compartment: "app", Entry: "signaller",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if wokenIndex != 1 {
		t.Fatalf("woken index = %d, want 1", wokenIndex)
	}
}

// TestMultiwaitOverQueues: §3.2.4 "All asynchronous APIs on CHERIoT
// expose a futex" — a consumer polls two queues through their tail
// futexes with one multiwait.
func TestMultiwaitOverQueues(t *testing.T) {
	img := core.NewImage("mw-queues")
	libs.AddQueueTo(img)
	qcap, qelem := uint32(2), uint32(4)
	bufBytes := libs.QueueBytes(qcap, qelem)
	var wokenIdx uint32 = 99
	var got uint32
	comp := &firmware.Compartment{
		Name: "app", CodeSize: 512, DataSize: 256,
		Imports: libs.QueueImports(),
		Exports: []*firmware.Export{
			{Name: "consumer", MinStack: 1024,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					g := ctx.Globals()
					bufA, _ := g.WithAddress(g.Base()).SetBounds(bufBytes)
					bufB, _ := g.WithAddress(g.Base() + bufBytes).SetBounds(bufBytes)
					for _, buf := range []cap.Capability{bufA, bufB} {
						if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueInit,
							api.C(buf), api.W(qcap), api.W(qelem))); e != api.OK {
							t.Errorf("init: %v", e)
							return nil
						}
					}
					fA, err := libs.TailFutex(bufA)
					if err != nil {
						t.Errorf("TailFutex: %v", err)
						return nil
					}
					fB, err := libs.TailFutex(bufB)
					if err != nil {
						t.Errorf("TailFutex: %v", err)
						return nil
					}
					seenA, seenB := ctx.Load32(fA), ctx.Load32(fB)
					rets, callErr := ctx.Call(sched.Name, sched.EntryMultiwait,
						api.W(0), api.C(fA), api.W(seenA), api.C(fB), api.W(seenB))
					if callErr != nil || api.ErrnoOf(rets) < 0 {
						t.Errorf("multiwait: %v %v", callErr, rets)
						return nil
					}
					wokenIdx = rets[0].AsWord()
					out := ctx.StackAlloc(qelem)
					if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueReceive,
						api.C(bufB), api.C(out), api.W(0))); e != api.OK {
						t.Errorf("receive: %v", e)
						return nil
					}
					got = ctx.Load32(out)
					return nil
				}},
			{Name: "producer", MinStack: 1024,
				Entry: func(ctx api.Context, args []api.Value) []api.Value {
					ctx.Yield() // let the consumer initialize and block
					ctx.Yield()
					g := ctx.Globals()
					bufB, _ := g.WithAddress(g.Base() + bufBytes).SetBounds(bufBytes)
					elem := ctx.StackAlloc(qelem)
					ctx.Store32(elem, 8899)
					if e := api.ErrnoOf(ctx.LibCall(libs.QueueLib, libs.FnQueueSend,
						api.C(bufB), api.C(elem), api.W(0))); e != api.OK {
						t.Errorf("send: %v", e)
					}
					return nil
				}},
		},
	}
	img.AddCompartment(comp)
	img.AddThread(&firmware.Thread{Name: "cons", Compartment: "app", Entry: "consumer",
		Priority: 2, StackSize: 4096, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "prod", Compartment: "app", Entry: "producer",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	s := boot(t, img)
	run(t, s)
	if wokenIdx != 1 {
		t.Fatalf("multiwait woke index %d, want 1 (queue B)", wokenIdx)
	}
	if got != 8899 {
		t.Fatalf("received %d", got)
	}
}

// TestCheckHelpers covers the pointer-checking library functions.
func TestCheckHelpers(t *testing.T) {
	img := core.NewImage("check")
	libs.AddCheckTo(img)
	var results []uint32
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		Imports: libs.CheckImports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 256,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				g := ctx.Globals()
				ok := ctx.LibCall(libs.CheckLib, libs.FnCheckPointer,
					api.C(g), api.W(uint32(cap.PermLoad|cap.PermStore)), api.W(16))
				results = append(results, ok[0].AsWord())
				ro, _ := g.ReadOnly()
				bad := ctx.LibCall(libs.CheckLib, libs.FnCheckPointer,
					api.C(ro), api.W(uint32(cap.PermStore)), api.W(16))
				results = append(results, bad[0].AsWord())
				short := ctx.LibCall(libs.CheckLib, libs.FnCheckPointer,
					api.C(g), api.W(uint32(cap.PermLoad)), api.W(1<<20))
				results = append(results, short[0].AsWord())
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "app", Entry: "main",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 4})
	s := boot(t, img)
	run(t, s)
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	if api.Errno(int32(results[0])) != api.OK {
		t.Fatal("valid pointer rejected")
	}
	if api.Errno(int32(results[1])) != api.ErrInvalid {
		t.Fatal("read-only pointer accepted for store")
	}
	if api.Errno(int32(results[2])) != api.ErrInvalid {
		t.Fatal("short pointer accepted")
	}
}
