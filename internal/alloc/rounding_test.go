package alloc_test

import (
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
)

// TestAllocationsAreRepresentable: every capability the allocator hands
// out must be exactly encodable in the compressed bounds format — the
// reason real CHERIoT allocators round sizes and align bases (§2.1).
func TestAllocationsAreRepresentable(t *testing.T) {
	sizes := []uint32{1, 7, 65, 513, 1000, 4097, 30_000, 65_537, 100_000}
	runApp(t, 220*1024, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		for _, size := range sizes {
			obj, errno := cl.Malloc(ctx, size)
			if errno != api.OK {
				t.Errorf("malloc(%d): %v", size, errno)
				continue
			}
			if !cap.BoundsRepresentable(obj.Base(), obj.Length()) {
				t.Errorf("malloc(%d) -> [%#x, +%d): not representable",
					size, obj.Base(), obj.Length())
			}
			if obj.Length() < size {
				t.Errorf("malloc(%d) -> only %d bytes", size, obj.Length())
			}
			// The rounding is bounded: no more than one alignment step.
			if obj.Length()-size > 2*cap.RepresentableAlignment(obj.Length()) {
				t.Errorf("malloc(%d) over-rounded to %d", size, obj.Length())
			}
			if e := cl.Free(ctx, obj); e != api.OK {
				t.Errorf("free(%d): %v", size, e)
			}
		}
	})
}

// TestQuotaChargesRoundedSize: the quota accounts for what was actually
// reserved, so rounding cannot be used to over-commit the heap.
func TestQuotaChargesRoundedSize(t *testing.T) {
	runApp(t, 256*1024, nil, func(ctx api.Context) {
		cl := alloc.Client{}
		before, _ := cl.QuotaRemaining(ctx)
		obj, errno := cl.Malloc(ctx, 65_537) // rounds to 65,792
		if errno != api.OK {
			t.Errorf("malloc: %v", errno)
			return
		}
		after, _ := cl.QuotaRemaining(ctx)
		if before-after != obj.Length() {
			t.Errorf("quota charged %d, object is %d bytes", before-after, obj.Length())
		}
		cl.Free(ctx, obj)
		restored, _ := cl.QuotaRemaining(ctx)
		if restored != before {
			t.Errorf("quota after free = %d, want %d", restored, before)
		}
	})
}

// TestMallocAboveTwoGiBIsInvalid: heap_allocate rounds the caller's size
// before comparing it with the heap, and rounding a size above 2^31 once
// spun the bounds encoder forever, so one call from any compartment
// holding an allocation capability hung its device. The device runs on a
// goroutine with a deadline: a hang fails the test instead of the suite.
func TestMallocAboveTwoGiBIsInvalid(t *testing.T) {
	errno := api.OK
	s, err := core.Boot(appImage(8192, nil, func(ctx api.Context) {
		_, errno = alloc.Client{}.Malloc(ctx, 0x80000001)
	}))
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(nil) }()
	select {
	case err := <-done:
		s.Shutdown()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(3 * time.Second):
		// The device is still spinning on the other goroutine; shutting
		// it down from here would race its thread.
		t.Fatal("heap_allocate(quota, 0x80000001) did not return within 3 s")
	}
	if errno != api.ErrInvalid {
		t.Fatalf("heap_allocate(quota, 0x80000001) = %v, want %v", errno, api.ErrInvalid)
	}
}
