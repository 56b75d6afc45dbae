package alloc_test

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// raceQuantum is the preemption quantum of runRace's threads.
const raceQuantum = 10_000

// runRace boots a compartment holding two allocation capabilities,
// "owner" and "claimer", run by two threads at one priority. The main
// thread calls round for pad = 0, 10, 20, … cycles until round returns
// true. round calls inFlight(op), which starts a fresh quantum, works
// until pad cycles of it are left and runs op, so each round preemption
// falls at a later point of op. The other thread runs race once if it
// gets the core while op is in flight, and inFlight reports whether it
// did. runRace fails the test when no round returns true. It arms a
// flight recorder, which ticks no cycle, and returns it.
func runRace(t *testing.T, round func(ctx api.Context, inFlight func(op func()) bool) bool,
	race func(ctx api.Context)) *flightrec.Recorder {
	t.Helper()
	var inOp, raced, done, seen bool
	inFlight := func(ctx api.Context, pad uint64) func(op func()) bool {
		return func(op func()) bool {
			raced = false
			ctx.Yield()
			ctx.Work(raceQuantum - pad)
			inOp = true
			op()
			inOp = false
			return raced
		}
	}
	img := core.NewImage("alloc-race")
	img.AddCompartment(&firmware.Compartment{
		Name: "app", CodeSize: 256, DataSize: 64,
		AllocCaps: []firmware.AllocCap{
			{Name: "owner", Quota: 16384},
			{Name: "claimer", Quota: 16384},
		},
		Imports: alloc.Imports(),
		Exports: []*firmware.Export{
			{Name: "main", MinStack: 1024,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					defer func() { done = true }()
					for pad := uint64(0); pad < raceQuantum && !seen; pad += 10 {
						seen = round(ctx, inFlight(ctx, pad))
					}
					return nil
				}},
			{Name: "racer", MinStack: 1024,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					for !done {
						if inOp && !raced {
							race(ctx)
							raced = true
						}
						ctx.Yield()
					}
					return nil
				}},
		},
	})
	for _, entry := range []string{"main", "racer"} {
		img.AddThread(&firmware.Thread{Name: entry, Compartment: "app", Entry: entry,
			Priority: 1, StackSize: 4096, TrustedStackFrames: 12})
	}
	s, err := core.Boot(img)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Shutdown)
	s.Sched.SetQuantum(raceQuantum)
	rec := s.EnableFlightRecorder(1024)
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !seen {
		t.Fatal("no round preempted the operation at the point the test waits for")
	}
	return rec
}

// TestClaimRacingFinalFreeClaimsNothing pins a heap_claim preempted in
// its work after looking the object up, while another thread makes the
// object's final free and allocates again, so that the freed object's
// record is reused for the new one. The claim must not land on the new
// object: the claimant holds no capability to it, and a claim would keep
// the owner's free of it from completing. Nor may it charge the
// claimant's quota, since no later free would give the charge back, or
// leave a claim event, which the flight recorder would link to the new
// object.
func TestClaimRacingFinalFreeClaimsNothing(t *testing.T) {
	owner := alloc.Client{AllocCap: "owner"}
	claimer := alloc.Client{AllocCap: "claimer"}
	var x, y cap.Capability
	var roundStart uint64 // the cycle the last round's claim started at
	rec := runRace(t, func(ctx api.Context, inFlight func(op func()) bool) bool {
		x, _ = owner.Malloc(ctx, 64)
		var e api.Errno
		roundStart = ctx.Now()
		raced := inFlight(func() { e = claimer.Claim(ctx, x) })
		switch {
		case !raced:
			// Nothing ran during the claim.
			owner.Free(ctx, x)
			claimer.Free(ctx, x)
			return false
		case e != api.OK:
			// The free came before the claim's lookup.
			owner.Free(ctx, y)
			return false
		case claimer.CanFree(ctx, x) == api.OK:
			// The claim took before the free, which left x to it.
			claimer.Free(ctx, x)
			owner.Free(ctx, y)
			return false
		}
		if claimer.CanFree(ctx, y) == api.OK {
			t.Error("a claim racing its object's final free claimed the object allocated next")
		}
		if left, _ := claimer.QuotaRemaining(ctx); left != 16384 {
			t.Errorf("claimer's quota remaining = %d after a claim that landed on no object, want 16384", left)
		}
		slot := ctx.Globals().WithAddress(ctx.Globals().Base())
		ctx.StoreCap(slot, y)
		if e := owner.Free(ctx, y); e != api.OK {
			t.Errorf("owner's free of the new object = %v", e)
		}
		if ctx.LoadCap(slot).Valid() {
			t.Error("the owner's free of the new object did not complete")
		}
		return true
	}, func(ctx api.Context) {
		owner.Free(ctx, x)
		y, _ = owner.Malloc(ctx, 64)
	})
	// The last round is the one that hit the race.
	evs := rec.Events()
	if len(evs) == 0 || evs[0].Cycle > roundStart {
		t.Fatalf("the recorder no longer holds the racing round (%d events)", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind == telemetry.KindClaim && ev.Cycle >= roundStart {
			t.Errorf("a claim that landed on no object was recorded: %s claims %d bytes at %#x",
				ev.To, ev.Arg, ev.Arg2)
		}
	}
}

// TestFreeAllLeavesObjectsAllocatedDuringIt pins a heap_free_all
// preempted in the release of its first object, while another thread
// holding the same quota frees the second and allocates again, so that
// the second's record is reused for the new object. heap_free_all
// releases the objects the quota held when it started and must leave the
// new one alone.
func TestFreeAllLeavesObjectsAllocatedDuringIt(t *testing.T) {
	owner := alloc.Client{AllocCap: "owner"}
	var victims [2]cap.Capability
	var fresh cap.Capability
	live := -1 // the victims the racer found live, -1 until it ran
	runRace(t, func(ctx api.Context, inFlight func(op func()) bool) bool {
		for i := range victims {
			victims[i], _ = owner.Malloc(ctx, 64)
		}
		live = -1
		var n int
		var e api.Errno
		inFlight(func() { n, e = owner.FreeAll(ctx) })
		if live != 1 {
			// The racer did not run while exactly one victim was
			// released and the other still held.
			if live >= 0 {
				owner.Free(ctx, fresh)
			}
			return false
		}
		if e != api.OK || n != 2 {
			t.Errorf("free_all = %d, %v, want 2 released", n, e)
		}
		if owner.CanFree(ctx, fresh) != api.OK {
			t.Error("heap_free_all freed an object allocated while it ran")
		}
		return true
	}, func(ctx api.Context) {
		live = 0
		var last cap.Capability
		for _, v := range victims {
			if owner.CanFree(ctx, v) == api.OK {
				live, last = live+1, v
			}
		}
		if live > 0 {
			owner.Free(ctx, last)
		}
		fresh, _ = owner.Malloc(ctx, 64)
	})
}
