package sim

import (
	"fmt"
	"math/bits"
)

// eventQueue is the kernel's pending-event queue: a monotone radix queue
// (the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990, with
// FIFO buckets). It relies on the one property a simulation clock gives
// for free: nothing is ever pushed before the time of the most recent pop,
// last. Bucket 0 holds the events due at last; bucket b > 0 holds the
// events whose time first differs from last at bit b-1, so every bucket
// above 0 spans a disjoint, increasing range of times. Time is a
// non-negative int64, so bit 62 is the highest that can differ and 64
// buckets cover every time; the non-empty ones are the bits of mask.
//
// Every event of one time lies in the same bucket, in push order: a push
// appends to its bucket's tail, and pop, when bucket 0 is empty, moves
// last up to the earliest time in the lowest non-empty bucket and deals
// that bucket out, front to back, over the buckets below it, which are all
// empty. So pops come out in (time, push order), the order a binary heap
// keyed by (time, sequence number) gives, with no comparison between two
// events and no sequence number.
//
// The buckets are linked lists threaded through one pool of nodes with a
// free list, so a queue that has reached its peak length allocates
// nothing, whichever buckets its times fall in.
type eventQueue struct {
	last    Time // time of the most recent pop: the floor for every push
	mask    uint64
	buckets [64]bucket
	nodes   []qnode // node 0 is never used: index 0 means none
	free    int32   // head of the free list through qnode.next
}

type bucket struct {
	head, tail int32
	min        Time // earliest time in the bucket; unused for bucket 0
}

type qnode struct {
	ev   event
	next int32
}

type event struct {
	at Time
	p  *Proc  // process to wake, or
	fn func() // callback to run in the dispatch loop
}

// empty reports whether no event is pending.
func (q *eventQueue) empty() bool { return q.mask == 0 }

// min returns the time of the event pop would return; the queue must not
// be empty. It moves nothing: only pop raises last, which a peek that ran
// ahead of the clock would lift above a wake still to be pushed.
func (q *eventQueue) min() Time {
	if q.mask&1 != 0 {
		return q.last
	}
	return q.buckets[bits.TrailingZeros64(q.mask)].min
}

// push queues ev behind every pending event of the same time. ev.at below
// the floor is a kernel bug: At and scheduleWake clamp to the clock, which
// never runs behind the last pop.
func (q *eventQueue) push(ev event) {
	if ev.at < q.last {
		panic(fmt.Sprintf("sim: event at %d ps pushed below the queue's floor, %d ps", ev.at, q.last))
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		i = q.grow()
	}
	q.nodes[i].ev = ev
	q.link(bits.Len64(uint64(ev.at^q.last)), i)
}

// grow appends a node to the pool and returns its index.
func (q *eventQueue) grow() int32 {
	if len(q.nodes) == 0 {
		q.nodes = append(q.nodes, qnode{}) // the none sentinel
	}
	q.nodes = append(q.nodes, qnode{})
	return int32(len(q.nodes) - 1)
}

// link appends node i to bucket b's tail.
func (q *eventQueue) link(b int, i int32) {
	n := &q.nodes[i]
	n.next = 0
	bk := &q.buckets[b]
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		bk.head, bk.tail, bk.min = i, i, n.ev.at
		return
	}
	q.nodes[bk.tail].next = i
	bk.tail = i
	if n.ev.at < bk.min {
		bk.min = n.ev.at
	}
}

// pop removes and returns the earliest event, the first pushed among
// equals; the queue must not be empty.
func (q *eventQueue) pop() event {
	if q.mask&1 == 0 {
		q.refill()
	}
	b0 := &q.buckets[0]
	i := b0.head
	n := &q.nodes[i]
	ev := n.ev
	b0.head = n.next
	if b0.head == 0 {
		q.mask &^= 1
	}
	n.ev = event{} // drop the p/fn references for the collector
	n.next = q.free
	q.free = i
	return ev
}

// refill raises last to the earliest pending time and deals the lowest
// non-empty bucket out over the empty buckets below it, which leaves that
// time's events, in push order, in bucket 0. An event keeps every bit
// above b-1 in common with both the old and the new last, so it lands
// below b, and an event in a higher bucket still first differs from the
// new last at the same bit.
func (q *eventQueue) refill() {
	b := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << b
	q.last = q.buckets[b].min
	for i := q.buckets[b].head; i != 0; {
		next := q.nodes[i].next
		q.link(bits.Len64(uint64(q.nodes[i].ev.at^q.last)), i)
		i = next
	}
}
