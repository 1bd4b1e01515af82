package deque

// Ring is a plain, unsynchronized growable ring buffer implementing the
// Deque interface — the task-pool implementation for single-threaded
// engines. The discrete-event simulator (internal/sched) processes one
// event at a time, so its pools are never contended; paying Locked's
// per-operation mutex there buys nothing, and on the simulator's hot
// path (one PopBottom or Steal per executed task, plus every failed
// probe) the lock/unlock pair dominates the deque work itself. Ring has
// the same owner-LIFO / thief-FIFO semantics as Chase and Locked — the
// property tests drive it against Locked as the oracle — but every
// operation is a couple of integer ops and one slot move.
//
// A Ring is a value: an engine keeps its pools in one slice of Rings and
// can hand each one a window of a shared backing array (NewRing), so a
// run's pools cost one allocation for the headers and one for the slots.
// The zero Ring is empty and allocates on its first push.
//
// Ring is NOT safe for concurrent use. Concurrent engines (internal/rt)
// keep using Chase.
type Ring[T any] struct {
	// top and bottom are absolute positions, as in Chase: the live
	// window is [top, bottom) and slot i lives at slots[i&mask]. An
	// int64 cannot overflow in any realistic run (2^63 pushes).
	top    int64
	bottom int64
	mask   int64
	slots  []T
}

// NewRing returns an empty ring over slots, whose length must be zero or
// a power of two. Pushes fill slots without allocating; a push past
// len(slots) moves the ring to a fresh array twice the size (at least
// initialRingCap), so a caller that sizes slots for the most the ring
// will hold never allocates.
func NewRing[T any](slots []T) Ring[T] {
	n := len(slots)
	if n&(n-1) != 0 {
		panic("deque: ring length is not a power of two")
	}
	return Ring[T]{mask: int64(n) - 1, slots: slots}
}

// grow doubles the capacity, copying the live window [top, bottom).
func (d *Ring[T]) grow() {
	next := make([]T, max(len(d.slots)*2, initialRingCap))
	nmask := int64(len(next)) - 1
	for i := d.top; i < d.bottom; i++ {
		next[i&nmask] = d.slots[i&d.mask]
	}
	d.slots = next
	d.mask = nmask
}

// PushBottom adds v at the owner end.
func (d *Ring[T]) PushBottom(v T) {
	if d.bottom-d.top == int64(len(d.slots)) {
		d.grow()
	}
	d.slots[d.bottom&d.mask] = v
	d.bottom++
}

// PopBottom removes the newest value.
func (d *Ring[T]) PopBottom() (T, bool) {
	var zero T
	if d.bottom == d.top {
		return zero, false
	}
	d.bottom--
	i := d.bottom & d.mask
	v := d.slots[i]
	d.slots[i] = zero // release for GC
	return v, true
}

// Steal removes the oldest value. Despite the Deque-interface name it
// carries no thief-safety here: it is the FIFO end of the same
// single-threaded pool.
func (d *Ring[T]) Steal() (T, bool) {
	var zero T
	if d.bottom == d.top {
		return zero, false
	}
	i := d.top & d.mask
	v := d.slots[i]
	d.slots[i] = zero
	d.top++
	return v, true
}

// Len returns the current size.
func (d *Ring[T]) Len() int { return int(d.bottom - d.top) }

var _ Deque[int] = (*Ring[int])(nil)
