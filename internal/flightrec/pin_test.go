package flightrec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/prng"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned-dump.sha256")

const pinnedDumpDigest = "testdata/pinned-dump.sha256"

// Heap slots of the synthetic stream: allocations land on fixed
// 0x100-byte slots, so a freed slot is reused and a dangling capability
// must match the newest free at its address.
const (
	pinSlots    = 48
	pinSlotBase = 0x10000
	pinSlotSize = 0x100
)

// pinStream feeds r a seeded synthetic stream of steps events: roots,
// derives, allocs, claims, frees, sweeps, calls and returns, and traps
// that carry a capability into a live or freed allocation, a derived
// region outside the heap, or an address-only value.
func pinStream(r *Recorder, steps int) {
	f := &feeder{r: r, step: 7}
	rng := prng.NewSplitMix(26, 0)
	comps := []string{"alloc", "tcpip", "firewall", "app", "sntp"}
	comp := func() string { return comps[rng.Below(uint64(len(comps)))] }

	heap := f.root("alloc", pinSlotBase, pinSlotBase+pinSlots*pinSlotSize, "shared heap")
	nodes := []uint32{heap}
	live := map[uint32]uint32{} // slot base -> size
	var freed []uint32          // bases freed, oldest first
	epoch := uint64(0)
	regions := uint32(0x80000)
	for i := 0; i < steps; i++ {
		switch op := rng.Below(100); {
		case op < 4: // a fresh root region above the heap
			base := regions
			regions += 0x400
			if id := f.root(comp(), base, base+0x400, "region"); id != 0 {
				nodes = append(nodes, id)
			}
		case op < 38: // derive from any earlier node (0 once the table is full)
			parent := nodes[rng.Below(uint64(len(nodes)))]
			p := r.NodeByID(parent)
			base := p.Base
			if span := p.Top - p.Base; span > 1 {
				base += uint32(rng.Below(uint64(span / 2)))
			}
			top := base + 1 + uint32(rng.Below(64))
			id := f.emit(telemetry.Event{Kind: telemetry.KindDerive, To: comp(), Detail: "bounds",
				Parent: parent, Arg: uint64(base), Arg2: uint64(top)})
			if id != 0 {
				nodes = append(nodes, id)
			}
		case op < 58: // allocate a free slot
			slot := uint32(rng.Below(pinSlots))
			base := pinSlotBase + slot*pinSlotSize
			if _, ok := live[base]; ok {
				continue
			}
			size := 16 + uint32(rng.Below(pinSlotSize-16))
			live[base] = size
			if id := f.alloc(heap, comp(), "quota", base, size); id != 0 {
				nodes = append(nodes, id)
			}
		case op < 66: // claim a live allocation
			slot := uint32(rng.Below(pinSlots))
			base := pinSlotBase + slot*pinSlotSize
			if _, ok := live[base]; ok {
				f.emit(telemetry.Event{Kind: telemetry.KindClaim, To: comp(), Arg2: uint64(base)})
			}
		case op < 82: // free a live allocation
			slot := uint32(rng.Below(pinSlots))
			base := pinSlotBase + slot*pinSlotSize
			size, ok := live[base]
			if !ok {
				continue
			}
			delete(live, base)
			freed = append(freed, base)
			f.free(base, size, comp())
		case op < 86: // one revocation sweep
			epoch += 2
			f.sweep(epoch)
		case op < 94: // a call and its return
			to := comp()
			f.emit(telemetry.Event{Kind: telemetry.KindCall, Thread: "t0", From: "app", To: to,
				Entry: "entry", Arg: telemetry.PostureEnabled})
			f.emit(telemetry.Event{Kind: telemetry.KindReturn, Thread: "t0", From: "app", To: to,
				Entry: "entry"})
		default: // a trap carrying a capability
			var c cap.Capability
			switch k := rng.Below(4); {
			case k == 0 && len(freed) > 0: // dangling, into a recently freed slot
				base := freed[len(freed)-1-int(rng.Below(uint64(min(len(freed), 8))))]
				c = cap.New(base, base+16, base+4, cap.PermData).ClearTag()
			case k == 1: // into a live slot, if any
				slot := uint32(rng.Below(pinSlots))
				base := pinSlotBase + slot*pinSlotSize
				c = cap.New(base, base+8, base, cap.PermData)
			case k == 2: // into a derived region outside the heap
				base := 0x80000 + uint32(rng.Below(uint64(regions-0x80000+1)))
				c = cap.New(base, base+4, base, cap.PermData).ClearTag()
			default: // address-only: reloaded after a sweep cleared it
				addr := pinSlotBase + uint32(rng.Below(pinSlots*pinSlotSize))
				c = cap.New(0, 0, addr, 0)
			}
			f.now += f.step
			trap := telemetry.Event{Kind: telemetry.KindTrap, Cycle: f.now, Thread: "t0", To: comp(),
				Entry: "entry", Detail: "tag violation", Arg: uint64(i)}
			r.Record(trap, &hw.Trap{Code: hw.TrapTagViolation, Detail: "pinned stream", Cap: c})
			if rng.Below(3) == 0 {
				f.emit(telemetry.Event{Kind: telemetry.KindReboot, Thread: "t0", To: trap.To, Arg: 1})
			}
		}
	}
}

// TestRecorderPinnedPastCaps runs the recorder's side tables past their
// caps: the stream fills the provenance table to maxNodes and wraps the
// freed history past maxFreed and the reports past maxReports. It pins
// the SHA-256 of the dump's JSON, and checks NodeByID past the cap,
// Provenance's fallback scan over the nodes, and that the freed history
// is oldest first after the wrap. Rewrite the digest with `go test
// ./internal/flightrec/ -run TestRecorderPinnedPastCaps -update`.
func TestRecorderPinnedPastCaps(t *testing.T) {
	r := New(256)
	r.SetDevice("pinned")
	pinStream(r, 14000)

	if n := len(r.Nodes()); n != maxNodes {
		t.Fatalf("node table holds %d nodes, want the cap %d", n, maxNodes)
	}
	if r.nodesFull == 0 {
		t.Fatal("no derivation landed past the node cap")
	}
	last := r.NodeByID(maxNodes - 1)
	if last.ID != maxNodes-1 {
		t.Errorf("NodeByID(%d) = %+v, want the last node", maxNodes-1, last)
	}
	for _, id := range []uint32{maxNodes, maxNodes + 1, 1 << 31} {
		if n := r.NodeByID(id); n != (Node{}) {
			t.Errorf("NodeByID(%d) past the cap = %+v, want the zero Node", id, n)
		}
	}

	freed := r.FreedAllocations()
	if len(freed) != maxFreed {
		t.Fatalf("freed history = %d records, want the cap %d", len(freed), maxFreed)
	}
	for i := 1; i < len(freed); i++ {
		if freed[i].FreeCycle <= freed[i-1].FreeCycle {
			t.Fatalf("freed history not oldest first at %d: cycle %d after %d",
				i, freed[i].FreeCycle, freed[i-1].FreeCycle)
		}
	}
	if r.ReportsTotal() <= maxReports || len(r.Reports()) != maxReports {
		t.Fatalf("reports: %d kept of %d, want the cap %d of more", len(r.Reports()), r.ReportsTotal(), maxReports)
	}

	// A capability into a derived region matches no allocation: the
	// walk starts from the newest node covering it.
	nodes := r.Nodes()
	var region Node
	for i := len(nodes) - 1; i >= 1; i-- {
		if n := nodes[i]; n.Base >= 0x80000 && n.Top > n.Base {
			region = n
			break
		}
	}
	if region.ID == 0 {
		t.Fatal("stream derived no node outside the heap")
	}
	chain, alloc := r.Provenance(cap.New(region.Base, region.Top, region.Base, cap.PermData))
	if alloc != nil || len(chain) == 0 {
		t.Fatalf("fallback scan: chain %v, allocation %+v", chain, alloc)
	}
	for i := len(nodes) - 1; i >= 1; i-- {
		if n := nodes[i]; region.Base >= n.Base && region.Base < n.Top {
			if chain[0].ID != n.ID {
				t.Errorf("fallback scan started at node %d, want the newest covering node %d", chain[0].ID, n.ID)
			}
			break
		}
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].ID != chain[i-1].Parent {
			t.Errorf("chain link %d: node %d does not follow parent %d", i, chain[i].ID, chain[i-1].Parent)
		}
	}

	d := r.Snapshot(hw.DefaultHz)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, rep := range d.Reports {
		switch a := rep.Allocation; {
		case a == nil && len(rep.Chain) > 0:
			kinds["fallback"]++
		case a == nil:
			kinds["unmatched"]++
		case a.Live():
			kinds["live"]++
		default:
			kinds["dangling"]++
		}
	}
	t.Logf("dump: %d bytes, %d nodes (%d past the cap), %d live, %d freed, reports %v, %d events",
		buf.Len(), len(d.Nodes), r.nodesFull, len(d.Live), len(d.Freed), kinds, len(d.Events))
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if *update {
		if err := os.WriteFile(pinnedDumpDigest, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedDumpDigest)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("dump of %d bytes (%d nodes, %d live, %d freed, %d reports, %d events) hashes to %s, %s pins %s",
			buf.Len(), len(d.Nodes), len(d.Live), len(d.Freed), len(d.Reports), len(d.Events),
			got, pinnedDumpDigest, strings.TrimSpace(string(want)))
	}
}
