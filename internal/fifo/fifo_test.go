package fifo

import "testing"

// TestQueueOrder pushes and pops across the buffer's wrap point and its
// growth, and checks that elements come out in push order.
func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := range 40 {
		for range round % 7 {
			q.Push(next)
			next++
		}
		for range round % 5 {
			if q.Len() == 0 {
				break
			}
			if q.At(0) != want {
				t.Fatalf("At(0) = %d, want %d", q.At(0), want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
		for i := range q.Len() {
			if q.At(i) != want+i {
				t.Fatalf("At(%d) = %d, want %d", i, q.At(i), want+i)
			}
		}
	}
}

// TestQueueSteadyStateAllocatesNothing pins that a queue which has grown
// to its working depth reuses its slots.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[[]byte]
	frame := make([]byte, 64)
	for range 8 {
		q.Push(frame)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for range 5 {
			q.Push(frame)
		}
		for range 5 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm queue allocates %.2f objects per run, want 0", allocs)
	}
}

// TestQueuePopClearsSlot pins that a popped element is not kept alive by
// the queue's buffer.
func TestQueuePopClearsSlot(t *testing.T) {
	var q Queue[*int]
	q.Push(new(int))
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped element", i)
		}
	}
}
