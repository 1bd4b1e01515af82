// Package deque provides the work-stealing double-ended queues used by
// the live EEWA runtime (the paper's task pools, Fig. 4).
//
// Two implementations share the Deque interface:
//
//   - Chase — a lock-free Chase–Lev deque (Chase & Lev, SPAA 2005, with
//     the memory-model fixes of Lê et al., PPoPP 2013). The owner pushes
//     and pops at the bottom without synchronization in the common case;
//     thieves steal from the top with a single CAS. Slots are
//     atomic.Pointer values so the implementation is exact under the Go
//     race detector.
//   - Locked — a plain mutex-protected deque, the reference
//     implementation the property tests compare against and a useful
//     baseline for the contention benchmarks.
//
// Both are LIFO for the owner (good locality: recently spawned tasks
// have hot caches) and FIFO for thieves (steal the oldest task, which
// in divide-and-conquer programs is the largest), matching MIT Cilk.
package deque

import (
	"sync"
	"sync/atomic"
)

// Deque is a work-stealing deque of values of type T.
//
// PushBottom and PopBottom may be called only by the owning worker;
// Steal may be called by any number of concurrent thieves.
type Deque[T any] interface {
	// PushBottom adds v at the bottom (owner side).
	PushBottom(v T)
	// PopBottom removes and returns the most recently pushed value.
	// ok is false when the deque is empty.
	PopBottom() (v T, ok bool)
	// Steal removes and returns the oldest value (thief side).
	// ok is false when the deque is empty or the steal lost a race.
	Steal() (v T, ok bool)
	// Len returns a point-in-time size estimate (exact when quiescent).
	Len() int
}

// --- Chase–Lev -------------------------------------------------------

const initialRingCap = 8

// ring is an immutable-capacity circular buffer; growth allocates a new
// ring and copies live elements. Slots hold *T atomically so concurrent
// owner-writes and thief-reads are well-defined.
type ring[T any] struct {
	mask  int64
	slots []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{mask: capacity - 1, slots: make([]atomic.Pointer[T], capacity)}
}

func (r *ring[T]) cap() int64        { return int64(len(r.slots)) }
func (r *ring[T]) get(i int64) *T    { return r.slots[i&r.mask].Load() }
func (r *ring[T]) put(i int64, v *T) { r.slots[i&r.mask].Store(v) }

// grow returns a ring of twice the capacity holding elements [top, bottom).
func (r *ring[T]) grow(top, bottom int64) *ring[T] {
	nr := newRing[T](r.cap() * 2)
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// Chase is a lock-free Chase–Lev work-stealing deque.
// The zero value is not usable; call NewChase.
type Chase[T any] struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[ring[T]]
}

// NewChase returns an empty lock-free deque.
func NewChase[T any]() *Chase[T] {
	d := &Chase[T]{}
	d.ring.Store(newRing[T](initialRingCap))
	return d
}

// PushBottomRef adds p at the owner end without copying *p: the deque
// stores the pointer itself, so a caller that owns a slab of T can push
// &slab[i] and pay no allocation per element. p must be non-nil (nil is
// the empty answer of PopBottomRef and StealRef) and must stay valid
// until it has been popped or stolen. Only the owner may call it.
//
// The pointer forms are the one implementation; PushBottom, PopBottom
// and Steal are thin wrappers that box and unbox a value.
func (d *Chase[T]) PushBottomRef(p *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t >= r.cap()-1 {
		r = r.grow(t, b)
		d.ring.Store(r)
	}
	r.put(b, p)
	d.bottom.Store(b + 1)
}

// PopBottomRef removes the newest pointer, or returns nil when the
// deque is empty (including when a thief won the race for the last
// element). Only the owner may call it.
func (d *Chase[T]) PopBottomRef() *T {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore the invariant.
		d.bottom.Store(t)
		return nil
	}
	vp := r.get(b)
	if t != b {
		return vp // more than one element: no race possible
	}
	// Single element: race against thieves for it.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return nil
	}
	return vp
}

// StealRef removes the oldest pointer, or returns nil when the deque is
// empty or the steal lost a race — nil is not proof of emptiness (Len
// is). Any goroutine may call it.
//
// The operation order is load-bearing (Lê et al., PPoPP 2013, Fig. 1's
// steal): top is loaded *before* bottom, so a thief can never act on a
// bottom older than the top it validates — reading them the other way
// lets a thief holding a stale bottom CAS-claim an index the owner's
// PopBottomRef already took on its no-CAS fast path. The ring and slot
// are read after the emptiness check and *before* the CAS: the CAS is
// the linearization point, and it succeeds only while top is still t,
// which guarantees the slot read was of the live value (lapping slot
// t&mask requires bottom ≥ t+cap, which forces a grow first, and
// grows copy [top, bottom) into a fresh ring without ever mutating
// the published one). A slot read after a winning CAS would have no
// such guarantee. internal/check explores exactly these interleavings
// against seeded mutants of this function.
func (d *Chase[T]) StealRef() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	r := d.ring.Load()
	vp := r.get(t)
	if vp == nil {
		// Re-validate before claiming: a nil slot means this ring never
		// carried index t — the load raced a grow+wraparound and top
		// must already have moved past t, so the CAS below would fail.
		// Bailing out here makes that a guaranteed lost race instead of
		// leaning on the CAS to shield the caller's dereference: any
		// future reordering of these loads would otherwise surface as a
		// nil deref that kills the worker and strands the batch.
		return nil
	}
	if !d.top.CompareAndSwap(t, t+1) {
		return nil // lost the race; caller retries elsewhere
	}
	return vp
}

// PushBottom adds a copy of v at the owner end (one heap allocation for
// the copy; see PushBottomRef). Only the owner may call it.
func (d *Chase[T]) PushBottom(v T) { d.PushBottomRef(&v) }

// PopBottom removes the newest value. Only the owner may call it.
func (d *Chase[T]) PopBottom() (T, bool) { return deref(d.PopBottomRef()) }

// Steal removes the oldest value; ok is false when the deque is empty
// or the steal lost a race. Any goroutine may call it.
func (d *Chase[T]) Steal() (T, bool) { return deref(d.StealRef()) }

func deref[T any](p *T) (T, bool) {
	if p == nil {
		var zero T
		return zero, false
	}
	return *p, true
}

// Len returns a snapshot size (may be momentarily stale under
// concurrency, exact when quiescent).
func (d *Chase[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

var _ Deque[int] = (*Chase[int])(nil)

// --- Locked reference -------------------------------------------------

// Locked is a mutex-based deque with the same semantics as Chase. It is
// the property-test oracle and the contention baseline.
type Locked[T any] struct {
	mu    sync.Mutex
	items []T
}

// NewLocked returns an empty mutex-based deque.
func NewLocked[T any]() *Locked[T] {
	return &Locked[T]{}
}

// PushBottom adds v at the owner end.
func (d *Locked[T]) PushBottom(v T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

// PopBottom removes the newest value.
func (d *Locked[T]) PopBottom() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return zero, false
	}
	v := d.items[n-1]
	d.items[n-1] = zero // release for GC
	d.items = d.items[:n-1]
	return v, true
}

// Steal removes the oldest value.
func (d *Locked[T]) Steal() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	d.items[0] = zero
	d.items = d.items[1:]
	return v, true
}

// Len returns the current size.
func (d *Locked[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

var _ Deque[int] = (*Locked[int])(nil)
