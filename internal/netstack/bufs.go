package netstack

import (
	"slices"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
)

// threadBufs returns the running thread's buffers of type T from a
// compartment's per-thread table, made on the thread's first use. A
// compartment's state is shared by every thread that calls into it, and a
// thread can be preempted between filling a buffer and using it, so each
// thread fills only its own.
func threadBufs[T any](table *[]*T, ctx api.Context) *T {
	id := ctx.ThreadID()
	if id >= len(*table) {
		*table = append(*table, make([]*T, id+1-len(*table))...)
	}
	b := (*table)[id]
	if b == nil {
		b = new(T)
		(*table)[id] = b
	}
	return b
}

// loadInto reads n bytes at c's cursor into *buf, grown to n, and
// returns them: ctx.LoadBytes without a fresh slice.
func loadInto(ctx api.Context, buf *[]byte, c cap.Capability, n uint32) []byte {
	*buf = slices.Grow((*buf)[:0], int(n))[:n]
	ctx.LoadInto(c, *buf)
	return *buf
}
