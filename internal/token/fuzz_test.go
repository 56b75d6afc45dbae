package token_test

import (
	"fmt"
	"testing"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/token"
)

// The sealed-handle harness: two issuing compartments, each keeping a
// token.Sealer in its state, serve a driver that delegates one of its
// two quotas to every New and Free.
var (
	fuzzIssuers = [2]string{"issuer0", "issuer1"}
	fuzzQuotas  = [2]string{"q0", "q1"}
	fuzzLimits  = [2]uint32{1024, 2048}
)

const (
	// fuzzSlots bounds the driver's handle table, which it keeps in its
	// globals, so the machine revokes a freed handle as it would any
	// stale capability in memory.
	fuzzSlots = 16
	// fuzzSteps bounds a program; each step is two bytes.
	fuzzSteps = 64
)

// Fuzz program operations.
const (
	opNew = iota
	opOpen
	opFree
	opForgeOpen
	opHeapFree
	opForgeFree
	numOps
)

// issuerCompartment exports the Sealer's lifecycle to the driver:
// new(quota, size) -> (errno, handle, payloadLength),
// open(handle) -> (errno, payloadLength) and free(quota, handle) -> errno.
// It presents whatever the driver passed, word or capability.
func issuerCompartment(name string) *firmware.Compartment {
	return &firmware.Compartment{
		Name: name, CodeSize: 256, DataSize: 16,
		State:   func() interface{} { return new(token.Sealer) },
		Imports: append(token.Imports(), alloc.Imports()...),
		Exports: []*firmware.Export{
			{Name: "new", MinStack: 1024, Entry: api.On(func(s *token.Sealer, ctx api.Context, args []api.Value) []api.Value {
				h, payload, errno := s.New(ctx, args[0].Cap, args[1].AsWord())
				if errno != api.OK {
					return api.EV(errno)
				}
				return ctx.Ret(api.W(uint32(api.OK)), api.C(h), api.W(payload.Length()))
			})},
			{Name: "open", MinStack: 1024, Entry: api.On(func(s *token.Sealer, ctx api.Context, args []api.Value) []api.Value {
				payload, errno := s.Open(ctx, args[0].Cap)
				if errno != api.OK {
					return api.EV(errno)
				}
				return ctx.Ret(api.W(uint32(api.OK)), api.W(payload.Length()))
			})},
			{Name: "free", MinStack: 1024, Entry: api.On(func(s *token.Sealer, ctx api.Context, args []api.Value) []api.Value {
				return api.EV(s.Free(ctx, args[0].Cap, args[1].Cap))
			})},
		},
	}
}

// fuzzHandle is the model of one handle the driver holds.
type fuzzHandle struct {
	issuer, quota int
	size, charge  uint32
	live          bool
}

// charge is what the allocator charges a quota for a handle with a
// size-byte payload: the payload and the 8-byte header, at least a
// granule, rounded to a representable length.
func charge(size uint32) uint32 {
	n := size + 8
	if n < cap.GranuleSize {
		n = cap.GranuleSize
	}
	return cap.RepresentableLength(n)
}

// FuzzSealedHandles runs a byte-coded program of New, Open, Free, forged
// handles and plain heap_free steps over two issuers and two quotas, and
// after each step checks the machine against a plain model: a handle
// opens only under its issuer, only while live and unforged; its payload
// holds at least the requested bytes; Free succeeds once, and only with
// the handle's issuer and quota; plain heap_free never frees a sealed
// object; each quota's remaining bytes are its limit minus the charges
// of its live handles; and no call unwinds the driver.
func FuzzSealedHandles(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*fuzzSteps {
			prog = prog[:2*fuzzSteps]
		}
		var finding string
		done := false
		img := core.NewImage("sealed-handles")
		for _, name := range fuzzIssuers {
			img.AddCompartment(issuerCompartment(name))
		}
		imports := append(token.Imports(), alloc.Imports()...)
		for _, name := range fuzzIssuers {
			for _, e := range []string{"new", "open", "free"} {
				imports = append(imports, firmware.Import{Kind: firmware.ImportCall, Target: name, Entry: e})
			}
		}
		img.AddCompartment(&firmware.Compartment{
			Name: "driver", CodeSize: 512, DataSize: 8 * fuzzSlots,
			AllocCaps: []firmware.AllocCap{
				{Name: fuzzQuotas[0], Quota: fuzzLimits[0]},
				{Name: fuzzQuotas[1], Quota: fuzzLimits[1]},
				{Name: "own", Quota: 256},
			},
			Imports: imports,
			Exports: []*firmware.Export{{Name: "main", MinStack: 2048,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					finding = runSealedHandles(ctx, prog)
					done = true
					return nil
				}}},
		})
		img.AddThread(&firmware.Thread{Name: "driver", Compartment: "driver", Entry: "main",
			Priority: 1, StackSize: 8192, TrustedStackFrames: 8})
		s, err := core.Boot(img)
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		defer s.Shutdown()
		if err := s.Run(nil); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if finding != "" {
			t.Fatal(finding)
		}
		if !done {
			t.Fatal("the driver did not finish")
		}
	})
}

// runSealedHandles interprets prog in the driver and returns the first
// disagreement with the model, or "".
func runSealedHandles(ctx api.Context, prog []byte) string {
	var finding string
	fail := func(format string, args ...any) {
		if finding == "" {
			finding = fmt.Sprintf(format, args...)
		}
	}
	call := func(comp, entry string, args ...api.Value) []api.Value {
		rets, err := ctx.Call(comp, entry, args...)
		if err != nil {
			fail("%s.%s unwound the driver: %v", comp, entry, err)
		}
		return rets
	}
	quota := func(q int) api.Value { return api.C(ctx.SealedImport(fuzzQuotas[q])) }
	// slot returns the handle the driver stored in table slot i, loaded
	// from memory so a freed one comes back revoked.
	table := ctx.Globals()
	slot := func(i int) api.Value { return api.C(ctx.LoadCap(table.WithAddress(table.Base() + 8*uint32(i)))) }

	// The forgeries: a plain capability, a word and an object sealed
	// under the driver's own key.
	key, errno := token.KeyNew(ctx)
	if errno != api.OK {
		return fmt.Sprintf("driver key: %v", errno)
	}
	ownSealed, errno := alloc.Client{AllocCap: "own"}.MallocSealed(ctx, key, 8)
	if errno != api.OK {
		return fmt.Sprintf("driver sealed object: %v", errno)
	}
	forgeries := [3]api.Value{api.C(table), api.W(0x2000_0040), api.C(ownSealed)}

	var handles []fuzzHandle
	var used [2]uint32
	for step := 0; step+1 < len(prog) && finding == ""; step += 2 {
		op, b := int(prog[step])%numOps, prog[step+1]
		is, q, arg := int(b&1), int(b>>1&1), int(b>>2)
		issuer := fuzzIssuers[is]
		at := fmt.Sprintf("step %d (op %d, issuer %d, quota %d, arg %d)", step/2, op, is, q, arg)
		switch op {
		case opNew:
			if len(handles) == fuzzSlots {
				continue
			}
			size := 1 + uint32(arg)*4
			c := charge(size)
			rets := call(issuer, "new", quota(q), api.W(size))
			if finding != "" {
				break
			}
			fits := used[q]+c <= fuzzLimits[q]
			if got := api.ErrnoOf(rets); (got == api.OK) != fits {
				fail("%s: new(%d) on a quota with %d of %d bytes used = %v", at, size, used[q], fuzzLimits[q], got)
				break
			}
			if !fits {
				break
			}
			if n := rets[2].AsWord(); n < size {
				fail("%s: new(%d) payload holds %d bytes", at, size, n)
			}
			ctx.StoreCap(table.WithAddress(table.Base()+8*uint32(len(handles))), rets[1].Cap)
			handles = append(handles, fuzzHandle{issuer: is, quota: q, size: size, charge: c, live: true})
			used[q] += c
		case opOpen, opFree, opHeapFree:
			if len(handles) == 0 {
				continue
			}
			i := arg % len(handles)
			h := &handles[i]
			switch op {
			case opOpen:
				rets := call(issuer, "open", slot(i))
				if finding != "" {
					break
				}
				want := h.live && h.issuer == is
				if got := api.ErrnoOf(rets); (got == api.OK) != want {
					fail("%s: open of handle %d %+v = %v", at, i, *h, got)
				} else if want && rets[1].AsWord() < h.size {
					fail("%s: handle %d's payload holds %d of %d bytes", at, i, rets[1].AsWord(), h.size)
				}
			case opFree:
				rets := call(issuer, "free", quota(q), slot(i))
				if finding != "" {
					break
				}
				want := h.live && h.issuer == is && h.quota == q
				if got := api.ErrnoOf(rets); (got == api.OK) != want {
					fail("%s: free of handle %d %+v = %v", at, i, *h, got)
				} else if want {
					h.live = false
					used[q] -= h.charge
				}
			case opHeapFree:
				if got := (alloc.Client{AllocCap: fuzzQuotas[q]}).Free(ctx, slot(i).Cap); got == api.OK {
					fail("%s: plain heap_free freed sealed handle %d %+v", at, i, *h)
				} else if got == api.ErrUnwound {
					fail("%s: heap_free unwound the driver", at)
				}
			}
		case opForgeOpen:
			rets := call(issuer, "open", forgeries[arg%3])
			if finding == "" && api.ErrnoOf(rets) == api.OK {
				fail("%s: %s opened forgery %d", at, issuer, arg%3)
			}
		case opForgeFree:
			rets := call(issuer, "free", quota(q), forgeries[arg%3])
			if finding == "" && api.ErrnoOf(rets) == api.OK {
				fail("%s: %s freed forgery %d", at, issuer, arg%3)
			}
		}
		for q := range fuzzQuotas {
			rem, errno := alloc.Client{AllocCap: fuzzQuotas[q]}.QuotaRemaining(ctx)
			if errno != api.OK {
				fail("%s: quota %d: %v", at, q, errno)
			} else if want := fuzzLimits[q] - used[q]; rem != want {
				fail("%s: quota %d has %d bytes free, want %d", at, q, rem, want)
			}
		}
	}
	return finding
}
