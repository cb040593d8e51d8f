package prefetch

// ring is the FIFO eviction queue behind every bounded table in this
// package: a circular buffer of the table's configured size, allocated once.
// It records insertion order only; the table itself lives in a map.
type ring[T any] struct {
	buf  []T
	head int // the oldest element once the ring is full
	n    int
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

// push enqueues v. Once the ring holds its configured size it overwrites the
// oldest element and returns it as the victim the caller must drop.
func (r *ring[T]) push(v T) (victim T, full bool) {
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
