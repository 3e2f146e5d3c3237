package sim

import (
	"fmt"
	"strings"
	"testing"
)

// queueOracle drives an eventQueue and a reference side by side: the
// reference keeps every pending event with its push index and pops the
// least (time, push index) by a scan, the order the kernel's schedule is
// defined by.
type queueOracle struct {
	t     *testing.T
	q     eventQueue
	ref   []refEvent
	ids   []*Proc // ids[i] marks the i-th push
	floor Time    // time of the last pop: the earliest a push may be
}

type refEvent struct {
	at Time
	id int
}

func (o *queueOracle) push(at Time) {
	o.ids = append(o.ids, new(Proc))
	id := len(o.ids) - 1
	o.q.push(event{at: at, p: o.ids[id]})
	o.ref = append(o.ref, refEvent{at: at, id: id})
}

// least returns the reference's index of its next event.
func (o *queueOracle) least() int {
	k := 0
	for i, r := range o.ref {
		if r.at < o.ref[k].at || (r.at == o.ref[k].at && r.id < o.ref[k].id) {
			k = i
		}
	}
	return k
}

func (o *queueOracle) pop() bool {
	if o.q.empty() != (len(o.ref) == 0) {
		o.t.Fatalf("queue empty = %v with %d events pending", o.q.empty(), len(o.ref))
	}
	if len(o.ref) == 0 {
		return false
	}
	k := o.least()
	want := o.ref[k]
	o.ref = append(o.ref[:k], o.ref[k+1:]...)
	got := o.q.pop()
	if got.at != want.at || got.p != o.ids[want.id] {
		o.t.Fatalf("pop = (%v, push %d), want (%v, push %d)", got.at, o.idOf(got.p), want.at, want.id)
	}
	o.floor = got.at
	return true
}

func (o *queueOracle) idOf(p *Proc) int {
	for i, q := range o.ids {
		if q == p {
			return i
		}
	}
	return -1
}

func (o *queueOracle) peek() {
	if len(o.ref) == 0 {
		return
	}
	if got, want := o.q.min(), o.ref[o.least()].at; got != want {
		o.t.Fatalf("min = %v, want %v", got, want)
	}
}

// run interprets ops two bytes at a time, an op and its argument a, then
// drains the queue. Every push is at or after the floor, as the kernel's
// are; times span 0 ps to about 10 s.
func (o *queueOracle) run(ops []byte) {
	for len(ops) >= 2 {
		op, a := ops[0], ops[1]
		ops = ops[2:]
		switch op % 7 {
		case 0: // due now, pushed while bucket 0 may still be draining
			for i := 0; i <= int(a%4); i++ {
				o.push(o.floor)
			}
		case 1: // picoseconds ahead
			o.push(o.floor.Add(Duration(a)))
		case 2: // nanoseconds to microseconds ahead
			o.push(o.floor.Add(Duration(a) * Duration(a) * 37))
		case 3: // far future: dealt out again at every bucket it falls through
			o.push(o.floor.Add(Duration(a) * 39 * Millisecond))
		case 4: // a long run of one time
			at := o.floor.Add(Duration(a) * Nanosecond)
			for i := 0; i < 2+int(a%16); i++ {
				o.push(at)
			}
		case 5:
			for i := 0; i <= int(a%8) && o.pop(); i++ {
			}
		case 6: // a peek must move nothing a later push relies on
			o.peek()
		}
	}
	for o.pop() {
	}
}

// queueOps draws n op pairs from seed, op kinds weighted by w (index =
// kind, as queueOracle.run numbers them).
func queueOps(seed uint64, n int, w [7]int) []byte {
	r := NewRand(seed)
	total := 0
	for _, x := range w {
		total += x
	}
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		k, pick := 0, r.Intn(total)
		for pick >= w[k] {
			pick -= w[k]
			k++
		}
		ops = append(ops, byte(k), byte(r.Intn(256)))
	}
	return ops
}

// TestEventQueueOrder checks every pop of seeded push/pop/peek
// interleavings against the reference order, (time, push index).
func TestEventQueueOrder(t *testing.T) {
	profiles := []struct {
		name string
		w    [7]int // due now, ps, ns-µs, far, equal run, pop, peek
	}{
		{"mixed", [7]int{3, 2, 3, 1, 1, 5, 2}},
		{"due-now", [7]int{8, 1, 1, 0, 2, 6, 2}},
		{"equal-runs", [7]int{1, 0, 1, 0, 4, 5, 1}},
		{"far-future", [7]int{1, 1, 1, 4, 0, 4, 2}},
		{"peeks", [7]int{3, 2, 2, 1, 1, 3, 6}},
	}
	for _, pr := range profiles {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/%d", pr.name, seed), func(t *testing.T) {
				o := &queueOracle{t: t}
				o.run(queueOps(seed, 3000, pr.w))
				if o.floor < Time(Second) && pr.w[3] > 0 {
					t.Errorf("clock reached only %v: the far-future range went untested", o.floor)
				}
			})
		}
	}
}

// FuzzEventQueue runs queueOracle's op stream from the fuzz input.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 6, 0, 5, 0, 0, 1, 5, 7})
	f.Add([]byte{3, 255, 3, 1, 2, 200, 6, 0, 0, 3, 5, 255, 5, 255})
	f.Add([]byte{4, 15, 0, 2, 5, 3, 4, 15, 6, 0, 5, 7, 5, 7})
	f.Add(queueOps(1, 200, [7]int{3, 2, 3, 1, 1, 5, 2}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := &queueOracle{t: t}
		o.run(ops)
	})
}

// TestEventQueueAllocatesNothing lets the node pool reach its peak, then
// requires a stretch whose times cross power-of-two boundaries no earlier
// push crossed to allocate nothing: a bucket is a list through the pool,
// not storage of its own that warms up on first use.
func TestEventQueueAllocatesNothing(t *testing.T) {
	var q eventQueue
	p := new(Proc)
	const peak = 64
	for i := 0; i < peak; i++ {
		q.push(event{at: Time(i % 8), p: p})
	}
	for !q.empty() {
		q.pop()
	}
	bit := 12 // every earlier time is below 1<<3
	stretch := func() {
		now := q.last
		for i := 0; i < 8; i++ {
			q.push(event{at: now.Add(1 << (bit + i)), p: p})
			q.push(event{at: now, p: p})
		}
		bit += 8
		for !q.empty() {
			q.pop()
		}
	}
	if n := testing.AllocsPerRun(3, stretch); n != 0 {
		t.Errorf("%v allocations per stretch, want 0", n)
	}
	if bit < 44 || len(q.nodes) != peak+1 {
		t.Fatalf("stretches reached bit %d with %d nodes, want 44 and %d", bit, len(q.nodes), peak+1)
	}
}

// TestEventQueuePushBelowFloorPanics provokes the one state only a kernel
// bug reaches: an event queued before the last pop.
func TestEventQueuePushBelowFloorPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.At(10, func() {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(msg, "floor") {
			t.Fatalf("recovered %q, want a sim: panic about the floor", msg)
		}
	}()
	env.q.push(event{at: 9, fn: func() {}})
}

// BenchmarkEventQueue measures one pop and one push, the queue's share of
// an event, at the traffic the engines produce: 19 events pending at each
// pop, and 35% of pushes due at once, the rest waits from a nanosecond to
// ten microseconds.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	delays := [20]Duration{
		0, 3 * Nanosecond, 0, 40 * Nanosecond, 2 * Microsecond,
		0, Nanosecond, 400 * Nanosecond, 0, 12 * Nanosecond,
		0, 10 * Microsecond, 150 * Nanosecond, 0, 2 * Nanosecond,
		700 * Nanosecond, 0, 25 * Nanosecond, 5 * Microsecond, 80 * Nanosecond,
	}
	var q eventQueue
	p := new(Proc)
	for i := 0; i < 19; i++ {
		q.push(event{at: Time(delays[i]), p: p})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		q.push(event{at: ev.at.Add(delays[i%len(delays)]), p: p})
	}
}
