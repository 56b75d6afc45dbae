// Package fifo provides the first-in, first-out queue the simulator's
// device and software queues share: the network adaptor's receive queue,
// a socket's receive queue and the allocator's quarantine.
package fifo

// Queue is a FIFO in a circular buffer that grows by doubling, so pushes
// and pops take constant time and a steady rate of them reuses the same
// slots without allocating. The zero value is an empty queue, which
// allocates on its first Push.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th oldest element, 0 <= i < Len.
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(4, 2*len(q.buf)))
		for i := range q.n {
			buf[i] = q.At(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the oldest element; the queue must not be
// empty. Its slot is cleared, so the queue keeps nothing it no longer
// holds alive.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
