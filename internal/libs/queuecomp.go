package libs

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/token"
)

// QueueComp is the hardened message-queue compartment: the queue library
// wrapped for mutually-distrusting endpoints (§3.2.4). Queues are opaque
// sealed handles; buffers are allocated with the *caller's* delegated
// allocation capability (quota delegation, §3.2.3) but sealed under the
// compartment's own key, so the caller cannot free a queue out from under
// the other endpoint (§3.2.1); q_destroy frees it for a caller presenting
// the quota it was created on.
const QueueComp = "queuecomp"

// Queue-compartment entry names.
const (
	FnQCreate  = "q_create"
	FnQSend    = "q_send"
	FnQReceive = "q_receive"
	FnQDestroy = "q_destroy"
)

// AddQueueCompTo registers the hardened queue compartment (and the queue
// library it builds on, if absent) in an image. Its state is the sealer
// of its queue handles.
func AddQueueCompTo(img *firmware.Image) {
	if img.Library(QueueLib) == nil {
		AddQueueTo(img)
	}
	img.AddCompartment(&firmware.Compartment{
		Name:     QueueComp,
		CodeSize: 1100,
		DataSize: 32,
		State:    func() interface{} { return new(token.Sealer) },
		Imports: append(append(QueueImports(), token.Imports()...),
			alloc.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnQCreate, MinStack: 512, Entry: qCreate},
			{Name: FnQSend, MinStack: 512, Entry: qSend},
			{Name: FnQReceive, MinStack: 512, Entry: qReceive},
			{Name: FnQDestroy, MinStack: 512, Entry: qDestroy},
		},
	})
}

// QueueCompImports returns the imports a compartment needs to use the
// hardened queue endpoints.
func QueueCompImports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: QueueComp, Entry: FnQCreate},
		{Kind: firmware.ImportCall, Target: QueueComp, Entry: FnQSend},
		{Kind: firmware.ImportCall, Target: QueueComp, Entry: FnQReceive},
		{Kind: firmware.ImportCall, Target: QueueComp, Entry: FnQDestroy},
	}
}

// qCreate(delegatedAllocCap, capacity, elemSize) -> (errno, handle)
func qCreate(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	capacity, elemSize := args[1].AsWord(), args[2].AsWord()
	if capacity == 0 || capacity > 1024 || elemSize == 0 || elemSize > 4096 {
		return api.EV(api.ErrInvalid)
	}
	// Allocate on the caller's quota, sealed under our key: the caller
	// pays for the memory but cannot free it to trigger faults in the
	// other endpoint (§3.2.3).
	sobj, buf, errno := ctx.State().(*token.Sealer).New(ctx, args[0].Cap, QueueBytes(capacity, elemSize))
	if errno != api.OK {
		return api.EV(errno)
	}
	if e := api.ErrnoOf(ctx.LibCall(QueueLib, FnQueueInit,
		api.C(buf), api.W(capacity), api.W(elemSize))); e != api.OK {
		return api.EV(e)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.C(sobj))
}

// qSend(handle, elemCap, timeout) -> errno
func qSend(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf, errno := ctx.State().(*token.Sealer).Open(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	elemSize := ctx.Load32(buf.WithAddress(buf.Base() + qElemSize))
	// Hardened input checking before touching the caller's buffer.
	if !CheckPointer(ctx, args[1].Cap, cap.PermLoad, elemSize) {
		return api.EV(api.ErrInvalid)
	}
	return ctx.LibCall(QueueLib, FnQueueSend, api.C(buf), args[1], args[2])
}

// qReceive(handle, outCap, timeout) -> errno
func qReceive(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf, errno := ctx.State().(*token.Sealer).Open(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	elemSize := ctx.Load32(buf.WithAddress(buf.Base() + qElemSize))
	if !CheckPointer(ctx, args[1].Cap, cap.PermStore, elemSize) {
		return api.EV(api.ErrInvalid)
	}
	return ctx.LibCall(QueueLib, FnQueueReceive, api.C(buf), args[1], args[2])
}

// qDestroy(delegatedAllocCap, handle) -> errno frees a queue's buffer back
// to the quota it was created on, after the RTOS's queue_destroy: only a
// caller presenting that quota can destroy the queue, and the handle is
// dead afterwards. Like mqtt_close, it neither wakes nor fences a thread
// blocked on the queue; the other endpoint must not be waiting on it.
func qDestroy(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	return api.EV(ctx.State().(*token.Sealer).Free(ctx, args[0].Cap, args[1].Cap))
}
