package main

import (
	"runtime"
	"time"
)

// The benchmark runs on shared 2-vCPU VMs whose speed drifts by a third
// or more over minutes as neighbouring load comes and goes, enough to
// swamp any bound a change could be held to. So the parent times a fixed
// reference work before every rep and after the last, and reports each
// rep's times at the host speed the committed reference time was
// measured at (expected.json ref_loop_s): measured time × ref_loop_s ÷
// the mean of the two reference times around the rep. The reference work
// calls nothing in the repository, so no change to the program moves it;
// only the host's speed does. It leans on what the simulator leans on:
// map lookups in a table larger than the caches, integer arithmetic,
// goroutine hand-offs between two threads, and short-lived allocations
// for the garbage collector. Of mixes of these timed beside reps of the
// campaign, cloud-fanout and fleet-steady workloads, all four together
// tracked the drift of all three best.
const (
	refEntries = 1 << 20
	refLookups = 1_500_000
	refMixes   = 30_000_000
	refPings   = 50_000
	refAllocs  = 1_000_000
)

type refWork struct {
	table map[uint64]uint64
	sink  uint64
}

type refNode struct {
	next *refNode
	pad  [48]byte
}

func newRefWork() *refWork {
	t := make(map[uint64]uint64, refEntries)
	for i := uint64(0); i < refEntries; i++ {
		t[i*2654435761] = i
	}
	return &refWork{table: t}
}

// time runs the reference work once and returns its wall time in seconds.
func (r *refWork) time() float64 {
	t0 := time.Now()
	var s uint64
	for i := uint64(0); i < refLookups; i++ {
		s += r.table[(i*7919%refEntries)*2654435761]
	}
	x := uint64(1)
	for i := 0; i < refMixes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < refPings; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	var keep []*refNode
	for i := 0; i < refAllocs; i++ {
		n := &refNode{}
		if i%16 == 0 {
			keep = append(keep, n)
		}
		if len(keep) == 50_000 {
			keep = keep[:0]
		}
	}
	runtime.GC()
	r.sink += s + x + uint64(len(keep))
	return time.Since(t0).Seconds()
}
