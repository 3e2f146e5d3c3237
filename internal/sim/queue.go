package sim

// Queue is a FIFO message queue between simulated processes, the building
// block for DORA action queues and software/hardware request channels. A
// zero capacity means unbounded. Get blocks while the queue is empty; Put
// blocks while a bounded queue is full.
//
// Items live in a typed power-of-two ring buffer: steady-state Put/Get pairs
// allocate nothing, and PutFront — the priority path lock releases take so
// they never convoy behind a backlog — is O(1) instead of a double prepend.
//
// Closing a queue releases all blocked getters (Get returns ok=false once
// drained) so engines can shut workers down deterministically.
type Queue[T any] struct {
	env      *Env
	name     string
	capacity int       // 0 = unbounded
	buf      []slot[T] // ring; len is 0 or a power of two
	head     int       // index of the oldest item
	n        int       // live items
	getters  waitRing
	putters  waitRing
	closed   bool

	puts    int64
	maxLen  int
	sumWait Duration // total residence time of dequeued items
}

// slot pairs an item with its enqueue timestamp for residence accounting.
type slot[T any] struct {
	v     T
	stamp Time
}

// NewQueue returns a queue with the given capacity; capacity 0 is unbounded.
func NewQueue[T any](env *Env, name string, capacity int) *Queue[T] {
	return &Queue[T]{env: env, name: name, capacity: capacity}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// MaxLen reports the high-water mark of the queue length.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// Puts reports the number of items ever enqueued.
func (q *Queue[T]) Puts() int64 { return q.puts }

// ResidenceTime reports the cumulative time dequeued items spent queued.
func (q *Queue[T]) ResidenceTime() Duration { return q.sumWait }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// grow doubles the ring, unwrapping items to the front.
func (q *Queue[T]) grow() {
	q.buf = growRing(q.buf, q.head, q.n)
	q.head = 0
}

func (q *Queue[T]) bumpStats() {
	q.puts++
	if q.n > q.maxLen {
		q.maxLen = q.n
	}
	if w := q.getters.pop(); w != nil {
		q.env.scheduleWake(w, q.env.now)
	}
}

// Put enqueues v, blocking while a bounded queue is full. Put panics if the
// queue is closed: producers must be quiesced before Close.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.capacity > 0 && q.n >= q.capacity {
		if q.closed {
			panic("sim: put on closed queue " + q.name)
		}
		q.putters.push(p)
		p.park()
	}
	if q.closed {
		panic("sim: put on closed queue " + q.name)
	}
	q.enqueue(v)
}

// TryPut enqueues v only if the queue has room right now.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		panic("sim: put on closed queue " + q.name)
	}
	if q.capacity > 0 && q.n >= q.capacity {
		return false
	}
	q.enqueue(v)
	return true
}

// PutFront enqueues v at the head of the queue, ahead of waiting items —
// for priority messages (lock releases, completions) that must not convoy
// behind a backlog. It never blocks.
func (q *Queue[T]) PutFront(v T) {
	if q.closed {
		panic("sim: put on closed queue " + q.name)
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = slot[T]{v: v, stamp: q.env.now}
	q.n++
	q.bumpStats()
}

func (q *Queue[T]) enqueue(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = slot[T]{v: v, stamp: q.env.now}
	q.n++
	q.bumpStats()
}

// Get dequeues the oldest item, blocking while the queue is empty. It
// returns ok=false only when the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.n == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.getters.push(p)
		p.park()
	}
	return q.dequeue(), true
}

// TryGet dequeues the oldest item only if one is available right now.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.dequeue(), true
}

func (q *Queue[T]) dequeue() T {
	s := q.buf[q.head]
	q.buf[q.head] = slot[T]{} // release the item reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.sumWait += q.env.now.Sub(s.stamp)
	if w := q.putters.pop(); w != nil {
		q.env.scheduleWake(w, q.env.now)
	}
	return s.v
}

// Close marks the queue closed and wakes every blocked getter; they drain
// remaining items and then observe ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for w := q.getters.pop(); w != nil; w = q.getters.pop() {
		q.env.scheduleWake(w, q.env.now)
	}
}

// Signal is a one-shot completion event carrying a value: the handshake for
// asynchronous hardware requests. Await blocks until Fire; once fired,
// Await returns immediately. Multiple processes may await one signal.
//
// The first waiter is held inline (nearly every signal has exactly one), so
// awaiting allocates nothing until a second process arrives. An owner that
// uses one signal per transaction re-arms it with Reset instead of building
// a new one.
type Signal struct {
	env     *Env
	fired   bool
	val     any
	first   *Proc   // the first waiter
	waiters []*Proc // later waiters, in arrival order
	woken   int     // waiters Fire woke that have not yet returned from Await
	onFire  []func(any)
}

// NewSignal returns an unfired signal.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fire completes the signal with value v, runs OnFire callbacks, and wakes
// all waiters in arrival order. Firing an already-fired signal panics:
// completions must be delivered exactly once.
func (s *Signal) Fire(v any) {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.val = v
	for i, fn := range s.onFire {
		fn(v)
		s.onFire[i] = nil
	}
	s.onFire = s.onFire[:0]
	if s.first == nil {
		return
	}
	s.env.scheduleWake(s.first, s.env.now)
	s.first = nil
	s.woken = 1 + len(s.waiters)
	for i, w := range s.waiters {
		s.env.scheduleWake(w, s.env.now)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Reset re-arms a fired signal for another Fire, keeping the storage of its
// waiter and callback lists. Only the signal's owner
// may call it, and only once nothing else can still be looking at the old
// completion: Reset panics on a signal that has not fired (a waiter or an
// OnFire callback may be pending on it) and on one whose woken waiters have
// not all returned from Await.
func (s *Signal) Reset() {
	if !s.fired {
		panic("sim: reset of a signal that has not fired")
	}
	if s.woken != 0 {
		panic("sim: reset of a signal whose waiters have not all resumed")
	}
	s.fired = false
	s.val = nil
}

// OnFire registers fn to run synchronously, in registration order, when the
// signal fires (before waiters wake). If the signal already fired, fn runs
// immediately. Callbacks must not block; they exist so completion fan-in
// (e.g. joining several sub-completions into one) needs no extra process —
// and with it no extra event — per join.
func (s *Signal) OnFire(fn func(any)) {
	if s.fired {
		fn(s.val)
		return
	}
	s.onFire = append(s.onFire, fn)
}

// Fired reports whether the signal has completed.
func (s *Signal) Fired() bool { return s.fired }

// Value returns the fired value (nil before Fire).
func (s *Signal) Value() any { return s.val }

// Await blocks until the signal fires and returns its value.
func (s *Signal) Await(p *Proc) any {
	if !s.fired {
		if s.first == nil {
			s.first = p
		} else {
			s.waiters = append(s.waiters, p)
		}
		p.park()
		s.woken--
	}
	return s.val
}
