package sim

// waitRing is a FIFO of waiting processes backed by a power-of-two ring
// buffer. Kernel primitives (queues, resources) go through repeated
// fill-and-drain cycles on their waiter lists; a plain slice popped with
// s = s[1:] loses its front capacity and reallocates every cycle, while the
// ring reaches steady state and never allocates again.
type waitRing struct {
	buf  []*Proc
	head int
	n    int
}

func (w *waitRing) push(p *Proc) {
	if w.n == len(w.buf) {
		w.buf = growRing(w.buf, w.head, w.n)
		w.head = 0
	}
	w.buf[(w.head+w.n)&(len(w.buf)-1)] = p
	w.n++
}

// growRing doubles a power-of-two ring (minimum 8 slots), unwrapping the n
// live items starting at head to the front of the new buffer.
func growRing[T any](buf []T, head, n int) []T {
	newCap := len(buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	mask := len(buf) - 1
	for i := 0; i < n; i++ {
		nb[i] = buf[(head+i)&mask]
	}
	return nb
}

// ScratchPool is a free list of reusable element slices for
// simulation-confined scratch buffers (materialized scan rows and the
// like). Get returns an empty slice with whatever capacity a previous user
// grew; Put zeroes the elements (releasing their references) and keeps the
// storage. Pools are not safe for concurrent use from multiple goroutines,
// matching the simulator's one-process-at-a-time execution model: each
// owner confines its pool to one environment.
type ScratchPool[T any] struct{ free [][]T }

// Get returns an empty reusable slice.
func (p *ScratchPool[T]) Get() []T {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return nil
}

// Put returns s to the pool. The caller must not use it afterwards.
func (p *ScratchPool[T]) Put(s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
	p.free = append(p.free, s[:0])
}

// pop removes and returns the longest-waiting process; nil when empty.
func (w *waitRing) pop() *Proc {
	if w.n == 0 {
		return nil
	}
	p := w.buf[w.head]
	w.buf[w.head] = nil
	w.head = (w.head + 1) & (len(w.buf) - 1)
	w.n--
	return p
}
