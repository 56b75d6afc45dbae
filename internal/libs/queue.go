package libs

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// QueueLib is the message-queue shared library (§3.2.4). It operates on a
// caller-supplied buffer and is usable as-is between threads that trust
// each other (e.g. within a compartment); the queuecomp compartment wraps
// it with opaque handles and hardening for mutual distrust.
const QueueLib = "queue"

// Queue function names.
const (
	FnQueueInit    = "queue_init"
	FnQueueSend    = "queue_send"
	FnQueueReceive = "queue_receive"
	FnQueueSize    = "queue_size"
)

// Queue buffer header layout (words).
const (
	qCapacity = 0  // elements
	qElemSize = 4  // bytes per element
	qHead     = 8  // dequeue counter (futex word for senders)
	qTail     = 12 // enqueue counter (futex word for receivers)
	qHeader   = 16
)

// QueueBytes returns the buffer size needed for a queue of capacity
// elements of elemSize bytes.
func QueueBytes(capacity, elemSize uint32) uint32 {
	return qHeader + capacity*elemSize
}

// AddQueueTo registers the queue shared library in an image.
func AddQueueTo(img *firmware.Image) {
	img.AddLibrary(&firmware.Library{
		Name:     QueueLib,
		CodeSize: 780,
		Funcs: []*firmware.Export{
			{Name: FnQueueInit, Posture: firmware.PostureDisabled, Entry: queueInit},
			{Name: FnQueueSend, Posture: firmware.PostureDisabled, Entry: queueSend},
			{Name: FnQueueReceive, Posture: firmware.PostureDisabled, Entry: queueReceive},
			{Name: FnQueueSize, Posture: firmware.PostureDisabled, Entry: queueSize},
		},
	})
}

// QueueImports returns the imports a compartment needs for the queue
// library.
func QueueImports() []firmware.Import {
	return append([]firmware.Import{
		{Kind: firmware.ImportLib, Target: QueueLib, Entry: FnQueueInit},
		{Kind: firmware.ImportLib, Target: QueueLib, Entry: FnQueueSend},
		{Kind: firmware.ImportLib, Target: QueueLib, Entry: FnQueueReceive},
		{Kind: firmware.ImportLib, Target: QueueLib, Entry: FnQueueSize},
	}, sched.Imports()...)
}

func qWord(buf cap.Capability, off uint32) cap.Capability {
	return buf.WithAddress(buf.Base() + off)
}

// queueInit(buf, capacity, elemSize) lays out a queue in the buffer.
func queueInit(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf := args[0].Cap
	capacity, elemSize := args[1].AsWord(), args[2].AsWord()
	if capacity == 0 || elemSize == 0 ||
		buf.CheckAccess(cap.PermLoad|cap.PermStore, QueueBytes(capacity, elemSize)) != nil {
		return api.EV(api.ErrInvalid)
	}
	ctx.Store32(qWord(buf, qCapacity), capacity)
	ctx.Store32(qWord(buf, qElemSize), elemSize)
	ctx.Store32(qWord(buf, qHead), 0)
	ctx.Store32(qWord(buf, qTail), 0)
	return api.EV(api.OK)
}

// queueSend(buf, elemCap, timeout) enqueues one element, blocking while
// the queue is full (timeout 0 = forever).
func queueSend(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf, elem, timeout := args[0].Cap, args[1].Cap, args[2].AsWord()
	capacity := ctx.Load32(qWord(buf, qCapacity))
	elemSize := ctx.Load32(qWord(buf, qElemSize))
	if capacity == 0 || elem.CheckAccess(cap.PermLoad, elemSize) != nil {
		return api.EV(api.ErrInvalid)
	}
	for {
		head := ctx.Load32(qWord(buf, qHead))
		tail := ctx.Load32(qWord(buf, qTail))
		if tail-head < capacity {
			slot := buf.Base() + qHeader + (tail%capacity)*elemSize
			data := ctx.LoadBytes(elem.WithAddress(elem.Base()), elemSize)
			ctx.StoreBytes(buf.WithAddress(slot), data)
			ctx.Store32(qWord(buf, qTail), tail+1)
			// Wake receivers waiting on the tail counter.
			if _, err := ctx.Call(sched.Name, sched.EntryFutexWake,
				api.C(qWord(buf, qTail)), api.W(^uint32(0))); err != nil {
				return api.EV(api.ErrUnwound)
			}
			return api.EV(api.OK)
		}
		// Full: wait for the head counter to move.
		rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
			api.C(qWord(buf, qHead)), api.W(head), api.W(timeout))
		if err != nil {
			return api.EV(api.ErrUnwound)
		}
		if e := api.ErrnoOf(rets); e == api.ErrTimeout {
			return api.EV(api.ErrQueueFull)
		} else if e != api.OK {
			return api.EV(e)
		}
	}
}

// queueReceive(buf, outCap, timeout) dequeues one element into the
// caller's buffer, blocking while empty (timeout 0 = forever).
func queueReceive(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf, out, timeout := args[0].Cap, args[1].Cap, args[2].AsWord()
	capacity := ctx.Load32(qWord(buf, qCapacity))
	elemSize := ctx.Load32(qWord(buf, qElemSize))
	if capacity == 0 || out.CheckAccess(cap.PermStore, elemSize) != nil {
		return api.EV(api.ErrInvalid)
	}
	for {
		head := ctx.Load32(qWord(buf, qHead))
		tail := ctx.Load32(qWord(buf, qTail))
		if tail != head {
			slot := buf.Base() + qHeader + (head%capacity)*elemSize
			data := ctx.LoadBytes(buf.WithAddress(slot), elemSize)
			ctx.StoreBytes(out.WithAddress(out.Base()), data)
			ctx.Store32(qWord(buf, qHead), head+1)
			// Wake senders waiting on the head counter.
			if _, err := ctx.Call(sched.Name, sched.EntryFutexWake,
				api.C(qWord(buf, qHead)), api.W(^uint32(0))); err != nil {
				return api.EV(api.ErrUnwound)
			}
			return api.EV(api.OK)
		}
		// Empty: wait for the tail counter to move.
		rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
			api.C(qWord(buf, qTail)), api.W(tail), api.W(timeout))
		if err != nil {
			return api.EV(api.ErrUnwound)
		}
		if e := api.ErrnoOf(rets); e == api.ErrTimeout {
			return api.EV(api.ErrQueueEmpty)
		} else if e != api.OK {
			return api.EV(e)
		}
	}
}

// queueSize(buf) returns the number of queued elements.
func queueSize(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf := args[0].Cap
	head := ctx.Load32(qWord(buf, qHead))
	tail := ctx.Load32(qWord(buf, qTail))
	return ctx.Ret(api.W(tail - head))
}

// TailFutex returns the futex word receivers block on; asynchronous APIs
// expose it so a multiwaiter can poll several queues at once (§3.2.4).
func TailFutex(buf cap.Capability) (cap.Capability, error) {
	w, err := qWord(buf, qTail).SetBounds(4)
	if err != nil {
		return cap.Null(), err
	}
	return w.ReadOnly()
}
