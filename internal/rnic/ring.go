package rnic

// ring is a growable FIFO over one power-of-two backing array. Popping
// advances a head index instead of re-slicing, and reset keeps the
// array, so a queue that fills and drains forever (a QP's transmit
// descriptors, its pending atomic ACKs) allocates only while it grows
// to its high-water mark.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// front and back point at the oldest and newest elements, for updating
// them in place; the ring must not be empty, and the pointers are good
// only until the next push.
func (r *ring[T]) front() *T { return &r.buf[r.head] }
func (r *ring[T]) back() *T  { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the slot's pointers
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// reset empties the ring, keeping its backing array.
func (r *ring[T]) reset() {
	if end := r.head + r.n; end <= len(r.buf) {
		clear(r.buf[r.head:end])
	} else {
		clear(r.buf[r.head:])
		clear(r.buf[:end-len(r.buf)])
	}
	r.head, r.n = 0, 0
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
