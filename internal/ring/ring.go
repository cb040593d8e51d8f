// Package ring is the FIFO eviction queue behind the bounded tables of the
// prefetchers and the CSTP controller's PBOT.
package ring

// Ring is a circular buffer of a table's configured size, allocated once. It
// records insertion order only; the table itself lives elsewhere.
type Ring[T any] struct {
	buf  []T
	head int // the oldest element once the ring is full
	n    int
}

// New returns an empty ring of size elements.
func New[T any](size int) Ring[T] { return Ring[T]{buf: make([]T, size)} }

// Push enqueues v. Once the ring holds its configured size it overwrites the
// oldest element and returns it as the victim the caller must drop.
func (r *Ring[T]) Push(v T) (victim T, full bool) {
	if r.n < len(r.buf) {
		r.buf[r.n] = v
		r.n++
		return victim, false
	}
	victim = r.buf[r.head]
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return victim, true
}
