package sim

import "fmt"

// Env is a discrete-event simulation environment: a virtual clock plus an
// event queue. Processes spawned on an Env run strictly one at a time; every
// wake-up is mediated by the event queue with ties broken by insertion
// order, so a simulation is deterministic for a given program and seed.
//
// An Env must be created with NewEnv and driven from a single goroutine via
// Run or RunUntil. That goroutine runs the dispatch loop: pop an event, run
// the callback inline, advance the script the process parked in (script.go)
// or switch into the process (a coroutine, see coro.go), and continue when
// the process parks or finishes. The Go scheduler takes no part in a
// process switch, so the kernel costs the same at any GOMAXPROCS.
//
// The event queue is a monotone radix queue (eventq.go): it pops events in
// time order, equal times in push order, by bucketing each event on the
// highest bit in which its time differs from the last pop's, so it needs
// neither comparisons between events nor a sequence number, and a queue
// at its peak length allocates nothing.
type Env struct {
	now      Time
	q        eventQueue
	cur      *Proc  // process the dispatch loop is switched into, if any
	horizon  Time   // RunUntil's bound; fast-path waits must not pass it
	executed uint64 // events executed, including fast-path waits
	switches uint64 // coroutine resumes: events that switched into a process

	// Host-side sampler hook (see SetSampler). The hook fires whenever the
	// clock crosses obsNext — checked at the two places the clock advances
	// (dispatch and the Wait fast path) — so sampling schedules no kernel
	// events and cannot perturb the event order.
	obsTick Duration
	obsNext Time
	obsFn   func(now Time)

	procs []*Proc
	live  int   // processes that have been spawned and not yet finished
	err   error // first process panic, adorned with a stack trace; later ones are dropped

	closed bool
	dead   bool // Close ran: unfinished processes are being (or have been) reaped
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Executed reports how many events the environment has executed so far
// (timer wakes, callbacks, and fast-path clock advances). It is the
// denominator for kernel events/sec measurements.
func (e *Env) Executed() uint64 { return e.executed }

// Switches reports how many executed events resumed a process's coroutine.
// The rest of Executed ran inline in the dispatch loop — callbacks,
// fast-path waits and script steps (script.go) — at roughly a third of the
// host cost. Unlike Executed it is a property of how the program is
// written, not of the simulated schedule.
func (e *Env) Switches() uint64 { return e.switches }

// At schedules fn to run in the dispatch loop at time t (clamped to the
// present). Callbacks must not block; they are for lightweight bookkeeping
// such as statistics sampling. Consecutive due callbacks run back-to-back
// with no process switch.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.q.push(event{at: t, fn: fn})
}

// scheduleWake arranges for p to resume at time t. Exactly one wake may be
// outstanding per waiting process; double wakes are a kernel bug. t is
// clamped to the present so a wake computed from a slightly stale clock can
// never drag the clock backwards.
func (e *Env) scheduleWake(p *Proc, t Time) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.waking = true
	if t < e.now {
		t = e.now
	}
	e.q.push(event{at: t, p: p})
}

// Run executes events until none remain or a process panics. Processes left
// blocked on queues, resources or signals when the event queue drains are
// abandoned; use Close on queues and Fire on signals to release them for a
// clean shutdown, or Env.Close to reap whatever remains. Run returns the
// first process panic as an error.
func (e *Env) Run() error { return e.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps not after horizon. The clock
// stops at the last executed event (it does not jump to the horizon).
func (e *Env) RunUntil(horizon Time) error {
	if e.closed {
		return fmt.Errorf("sim: environment already closed")
	}
	e.horizon = horizon
	e.dispatch()
	if e.err != nil {
		e.closed = true
		return e.err
	}
	return nil
}

// dispatch is the event loop: it executes events in time order, equal times
// in the order they were scheduled, until none remains within the horizon
// or a process has panicked. A callback event runs inline. A process event
// first advances the script the process parked in, if any, also inline;
// only when there is none, or it has finished, does the loop switch into
// the process's coroutine, coming back when the process parks or finishes.
// A central loop costs two coroutine switches per process change where
// handing control process to process would cost one, but a coroutine
// switch stays on the calling thread and never enters the Go scheduler.
func (e *Env) dispatch() {
	for e.err == nil && !e.q.empty() && e.q.min() <= e.horizon {
		ev := e.q.pop()
		e.advance(ev.at)
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		p.waking = false
		e.cur = p
		if !p.script.parked || p.script.advance() {
			e.switches++
			p.next()
		}
		e.cur = nil
	}
}

// advance moves the clock to t for one executed event and fires the
// sampler if the clock crossed its next tick.
func (e *Env) advance(t Time) {
	e.now = t
	e.executed++
	if e.obsFn != nil && t >= e.obsNext {
		e.fireObs()
	}
}

// procKilled is the panic sentinel that unwinds a process Close is reaping;
// the process body's recovery treats it as a normal termination, not a
// process error.
type procKilled struct{}

// Close reaps every process still unfinished in the environment —
// processes left waiting when RunUntil returned early on a panic, blocked
// forever on queues and resources no one will ever signal, or spawned and
// never run. Stopping a started coroutine makes its yield return false,
// which park turns into a panic sentinel, so the process unwinds through
// its deferred calls and Live drops to zero. The environment is unusable
// afterwards; Close is idempotent and must be called from the driving
// goroutine, never from a process.
func (e *Env) Close() {
	if e.dead {
		return
	}
	e.dead = true
	e.closed = true
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.stop()
		if !p.done {
			// Never dispatched: stop ran none of the body, so not its
			// deferred exit either.
			p.exit()
		}
	}
	e.procs = nil
	e.q = eventQueue{}
}

// Spawn starts a new simulated process executing fn. The process begins at
// the current simulated time, after the caller parks or returns. The name
// appears in diagnostics only.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.script.p = p
	e.live++
	// procs exists so Close can reap; drop finished entries once they
	// dominate, so long runs with many short-lived processes stay O(live).
	if len(e.procs) >= 64 && len(e.procs) >= 2*e.live {
		kept := e.procs[:0]
		for _, old := range e.procs {
			if !old.done {
				kept = append(kept, old)
			}
		}
		for i := len(kept); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = kept
	}
	e.procs = append(e.procs, p)
	p.start(fn)
	e.scheduleWake(p, e.now)
	return p
}

// Live reports the number of spawned processes that have not finished.
func (e *Env) Live() int { return e.live }

// Proc is a simulated process: a coroutine that runs only when the dispatch
// loop switches into it and must park (via Wait or a blocking kernel
// primitive) or return to give control back. All Proc methods must be
// called from the process's own body.
type Proc struct {
	env    *Env
	name   string
	waking bool
	done   bool

	// The coroutine (coro.go): next switches into the process and returns
	// when it parks or finishes, yield parks it, stop reaps it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	script Script // the one script p builds and runs at a time (script.go)
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// park gives control back to the dispatch loop until some event wakes p.
// The caller must have arranged a wake (a timer event or registration on a
// queue/resource/signal waiter list) before parking. There is no case to
// short-cut here: a wake p scheduled for itself is never the queue's next
// event when p parks, because Wait's fast path takes every such case before it is pushed.
// yield returns false once Close has stopped the coroutine, at this park or
// at any later one reached from a deferred call while unwinding.
func (p *Proc) park() {
	p.mayBlock()
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Wait advances the process's local time by d without consuming any modelled
// resource. Negative durations are treated as zero.
//
// When the wake this Wait would schedule is provably the next event — no
// queued event precedes it and it stays inside the horizon — the clock
// advances directly: no queued event, no park, no switch. The schedule is
// bit-identical to the slow path because the skipped event would have been
// popped immediately with nothing able to run in between.
func (p *Proc) Wait(d Duration) {
	p.mayBlock()
	if !p.startWait(d) {
		p.park()
	}
}

// startWait is the whole of Wait but the park, shared with the script
// interpreter: it reports true when the fast path advanced the clock and
// false when it scheduled p's wake instead.
func (p *Proc) startWait(d Duration) bool {
	if d < 0 {
		d = 0
	}
	e := p.env
	t := e.now.Add(d)
	if e.cur == p && t <= e.horizon && (e.q.empty() || e.q.min() > t) {
		e.advance(t)
		return true
	}
	e.scheduleWake(p, t)
	return false
}

// mayBlock panics when p is inside a continuation, which must not block.
func (p *Proc) mayBlock() {
	if p.script.cont {
		panic("sim: process " + p.name + " blocks inside a continuation")
	}
}

// Continuing returns the process's script while one of its continuation
// steps runs (script.go), nil otherwise. Code that can run either in the
// process's body or in a continuation appends what it would block on to the
// script it returns instead of blocking.
func (p *Proc) Continuing() *Script {
	if p.script.cont {
		return &p.script
	}
	return nil
}

// Suspend parks the process indefinitely. The caller must have registered
// the process somewhere a later Resume will find it — Suspend/Resume is the
// primitive behind worker pools that reuse one process (and its coroutine)
// for many units of work instead of spawning per unit. A Resume costs
// exactly what a Spawn's initial wake costs (one event at the current
// time), so pooling changes allocation behavior, never the event schedule.
func (p *Proc) Suspend() { p.park() }

// Resume schedules suspended process p to continue at the current time.
// Resuming a process that is not suspended (or already has a wake pending)
// panics.
func (e *Env) Resume(p *Proc) { e.scheduleWake(p, e.now) }

// SetSampler installs a host-side observation hook: fn runs the first time
// the clock reaches each multiple of tick. The hook is out of band — it is
// invoked from the clock-advance path rather than from a scheduled event,
// so installing it queues no event and cannot change the event order or
// any simulated result. fn
// must only read simulation state (and write host-side records); it runs
// mid-event, must not block and must not touch kernel primitives. A nil fn
// removes the hook. tick must be positive.
func (e *Env) SetSampler(tick Duration, fn func(now Time)) {
	if fn == nil {
		e.obsFn = nil
		return
	}
	if tick <= 0 {
		panic("sim: SetSampler needs a positive tick")
	}
	e.obsTick = tick
	e.obsNext = e.now.Add(tick)
	e.obsFn = fn
}

// fireObs invokes the sampler for the tick boundary the clock just crossed,
// then advances the next boundary past the present — one sample per tick
// while the simulation is busy, a single catch-up sample (at the last
// crossed boundary) after an idle jump. The cadence is a pure function of
// the event times.
func (e *Env) fireObs() {
	t := e.obsNext
	tick := Time(e.obsTick)
	if behind := e.now - t; behind >= tick {
		k := behind / tick
		t += k * tick
	}
	e.obsNext = t + tick
	e.obsFn(t)
}
