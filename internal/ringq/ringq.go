// Package ringq provides the growable ring buffer behind the FIFOs whose
// elements are not packets waiting in one place: router virtual-channel
// entries and MinBD side-buffer flits. (Packet queues are intrusive —
// message.Queue — and own no memory.) A Ring makes enqueue, dequeue, and insertion or removal at an
// index allocation-free in steady state: the backing array is reused
// forever and only grows (by doubling) when the occupancy high-water
// mark rises.
//
// The zero value is an empty ring; the first push allocates. An owner
// that knows its rings' working capacity up front carves their backing
// arrays from one slab and hands each its piece with Adopt, so a whole
// network of rings costs one allocation at build time and none on first
// use. Rings are deliberately unbounded — the simulator's finite
// resources (VC and ejection capacities) are enforced by their owners,
// which already guard every enqueue, so a capacity check here would only
// duplicate an invariant and turn a modelling bug into silent
// back-pressure.
package ringq

// Ring is a FIFO/deque over a power-of-two circular buffer. Its cursors
// are int32, so both share one word beside the slice header.
type Ring[T any] struct {
	buf  []T
	head int32 // index of element 0
	n    int32 // occupancy
}

// CeilPow2 rounds n up to a power of two (minimum 1) — the backing
// length Adopt requires for a ring meant to hold n elements.
func CeilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Adopt installs buf as the backing array of an empty ring. len(buf)
// must be a power of two; the ring still grows (onto the heap) if
// occupancy ever exceeds it.
func (r *Ring[T]) Adopt(buf []T) {
	if r.n != 0 || len(buf)&(len(buf)-1) != 0 {
		panic("ringq: Adopt needs an empty ring and a power-of-two backing array")
	}
	r.buf, r.head = buf, 0
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return int(r.n) }

// Cap reports the current backing capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// mask converts a logical index to a buffer index. len(buf) is always a
// power of two, so modulo reduces to an AND.
func (r *Ring[T]) mask(i int32) int32 { return i & int32(len(r.buf)-1) }

// grow doubles the backing array, unrolling the wrap so element 0 lands
// at buffer index 0.
func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 4
	}
	buf := make([]T, newCap)
	for i := int32(0); i < r.n; i++ {
		buf[i] = r.buf[r.mask(r.head+i)]
	}
	r.buf = buf
	r.head = 0
}

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[r.mask(r.head+r.n)] = v
	r.n++
}

// Front returns element 0. It panics on an empty ring.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("ringq: Front of empty ring")
	}
	return r.buf[r.head]
}

// Ptr returns a pointer to element i in place, for rings of structs
// mutated where they sit. It is valid until the next insertion or
// removal. It panics when i is out of range.
func (r *Ring[T]) Ptr(i int) *T {
	if i < 0 || i >= int(r.n) {
		panic("ringq: index out of range")
	}
	return &r.buf[r.mask(r.head+int32(i))]
}

// PopFront removes and returns element 0, zeroing its slot so the ring
// never pins a popped pointer against the garbage collector.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ringq: PopFront of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.mask(r.head + 1)
	r.n--
	return v
}

// InsertAt places v at logical index i (0 = new front, Len() = append),
// shifting the shorter side of the ring by one slot.
func (r *Ring[T]) InsertAt(at int, v T) {
	if at < 0 || at > int(r.n) {
		panic("ringq: insert index out of range")
	}
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	i := int32(at)
	if i <= r.n/2 {
		// Shift the front segment [0, i) one slot toward the head.
		r.head = r.mask(r.head - 1)
		for k := int32(0); k < i; k++ {
			r.buf[r.mask(r.head+k)] = r.buf[r.mask(r.head+k+1)]
		}
	} else {
		// Shift the back segment [i, n) one slot toward the tail.
		for k := r.n; k > i; k-- {
			r.buf[r.mask(r.head+k)] = r.buf[r.mask(r.head+k-1)]
		}
	}
	r.buf[r.mask(r.head+i)] = v
	r.n++
}

// RemoveAt removes and returns element i, preserving the order of the
// rest and zeroing the vacated slot.
func (r *Ring[T]) RemoveAt(at int) T {
	if at < 0 || at >= int(r.n) {
		panic("ringq: remove index out of range")
	}
	i := int32(at)
	v := r.buf[r.mask(r.head+i)]
	var zero T
	if i <= r.n/2 {
		// Close the gap from the front.
		for k := i; k > 0; k-- {
			r.buf[r.mask(r.head+k)] = r.buf[r.mask(r.head+k-1)]
		}
		r.buf[r.head] = zero
		r.head = r.mask(r.head + 1)
	} else {
		// Close the gap from the back.
		for k := i; k < r.n-1; k++ {
			r.buf[r.mask(r.head+k)] = r.buf[r.mask(r.head+k+1)]
		}
		r.buf[r.mask(r.head+r.n-1)] = zero
	}
	r.n--
	return v
}
