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
	capacity int // 0 = unbounded
	buf      []T // ring; len is 0 or a power of two
	head     int // index of the oldest item
	n        int // live items
	getters  waitRing
	putters  waitRing
	closed   bool
	puts     int64
}

// NewQueue returns a queue with the given capacity; capacity 0 is unbounded.
func NewQueue[T any](env *Env, name string, capacity int) *Queue[T] {
	return &Queue[T]{env: env, name: name, capacity: capacity}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Puts reports the number of items ever enqueued.
func (q *Queue[T]) Puts() int64 { return q.puts }

// grow doubles the ring, unwrapping items to the front.
func (q *Queue[T]) grow() {
	q.buf = growRing(q.buf, q.head, q.n)
	q.head = 0
}

func (q *Queue[T]) bumpStats() {
	q.puts++
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
	q.buf[q.head] = v
	q.n++
	q.bumpStats()
}

func (q *Queue[T]) enqueue(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.bumpStats()
}

// Get dequeues the oldest item, blocking while the queue is empty. It
// returns ok=false only when the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for {
		if v, ok, done := q.take(p); done {
			return v, ok
		}
		p.park()
	}
}

// take is one try of Get: the oldest item (ok), or ok=false when the queue
// is closed and drained (both done), or, while it is empty and open, p put in
// the getter ring, which a Put, PutFront or Close wakes (not done).
func (q *Queue[T]) take(p *Proc) (v T, ok, done bool) {
	if q.n == 0 {
		if !q.closed {
			q.getters.push(p)
		}
		return v, false, q.closed
	}
	return q.dequeue(), true, true
}

// Getter is one consumer's end of a queue for Script.Get: the step takes the
// oldest item of Q into V, with OK false once Q is closed and drained.
type Getter[T any] struct {
	Q  *Queue[T]
	V  T
	OK bool
}

// taker is what a get step takes from: one try, reporting false when it put
// p in a getter ring to wait.
type taker interface {
	take(p *Proc) bool
}

func (g *Getter[T]) take(p *Proc) bool {
	v, ok, done := g.Q.take(p)
	g.V, g.OK = v, ok
	return done
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
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release the item reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if w := q.putters.pop(); w != nil {
		q.env.scheduleWake(w, q.env.now)
	}
	return v
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

// Signal is a one-shot completion event: the handshake for asynchronous
// hardware requests, and — armed with a count — the join of several
// completions into one (a rendezvous point's arrivals, a commit's per-shard
// durable points). Await blocks until the signal completes; once it has,
// Await returns immediately. Multiple processes may await one signal.
//
// The first waiter is held inline (nearly every signal has exactly one), so
// awaiting allocates nothing until a second process arrives. An owner that
// uses one signal per transaction re-arms it with Reset instead of building
// a new one.
type Signal struct {
	env     *Env
	fired   bool
	left    int     // Fires still owed by Arm; 0 when unarmed (one Fire completes)
	first   *Proc   // the first waiter
	waiters []*Proc // later waiters, in arrival order
	woken   int     // waiters Fire woke that have not yet returned from Await
	onFire  []func()
}

// NewSignal returns an unfired signal that one Fire completes.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Arm makes the signal a join of n completions: the n-th Fire completes it
// and every earlier one only counts. Arm panics for n < 1, on a fired
// signal and on one already armed; Reset disarms.
func (s *Signal) Arm(n int) {
	switch {
	case n < 1:
		panic("sim: signal armed with fewer than one completion")
	case s.fired:
		panic("sim: arm of a fired signal")
	case s.left != 0:
		panic("sim: signal armed twice")
	}
	s.left = n
}

// Fire delivers one completion. The one that completes the signal (the
// only one, unless Arm asked for more) runs OnFire callbacks and wakes all
// waiters in arrival order. Firing a completed signal panics: completions
// must be delivered exactly once.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	if s.left > 1 {
		s.left--
		return
	}
	s.left = 0
	s.fired = true
	for i, fn := range s.onFire {
		fn()
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

// Reset re-arms a fired signal for another single Fire, keeping the storage
// of its waiter and callback lists. Only the signal's owner may call it,
// and only once nothing else can still be looking at the old completion:
// Reset panics on a signal that has not completed (a waiter, an OnFire
// callback or an armed completion may be pending on it) and on one whose
// woken waiters have not all returned from Await.
func (s *Signal) Reset() {
	if !s.fired {
		panic("sim: reset of a signal that has not fired")
	}
	if s.woken != 0 {
		panic("sim: reset of a signal whose waiters have not all resumed")
	}
	s.fired = false
}

// OnFire registers fn to run synchronously, in registration order, when the
// signal completes (before waiters wake). If the signal already completed,
// fn runs immediately. Callbacks must not block; they exist so a completion
// can start the next step of a chain (a replicated commit's ack wait once
// its local durable point holds) with no extra process — and with it no
// extra event.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.onFire = append(s.onFire, fn)
}

// Fired reports whether the signal has completed.
func (s *Signal) Fired() bool { return s.fired }

// Await blocks until the signal completes.
func (s *Signal) Await(p *Proc) {
	if !s.fired {
		p.mayBlock() // before enlisting: a refused await leaves no waiter
		s.enlist(p)
		p.park()
		s.woken--
	}
}

// enlist makes p a waiter, woken by the Fire that completes s.
func (s *Signal) enlist(p *Proc) {
	if s.first == nil {
		s.first = p
	} else {
		s.waiters = append(s.waiters, p)
	}
}
