package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Env is a discrete-event simulation environment: a virtual clock plus an
// event queue. Processes spawned on an Env run strictly one at a time per
// shard; every wake-up is mediated by the event queue with ties broken by
// insertion order, so a simulation is deterministic for a given program and
// seed.
//
// An Env must be created with NewEnv and driven from a single goroutine via
// Run or RunUntil. That goroutine runs the shard's dispatch loop: pop an
// event, run the callback inline, advance the script the process parked in
// (script.go) or switch into the process (a coroutine, see coro.go), and
// continue when the process parks or finishes. The Go scheduler takes no
// part in a process switch, so the serial kernel costs the same at any
// GOMAXPROCS.
//
// The environment owns one or more shards, each a complete serial event
// kernel: its own clock, sequence counter and heap. NewEnv creates exactly
// one shard and everything runs on it — the serial kernel, unchanged.
// EnableParallel (parallel.go) adds shards that execute concurrently on host
// goroutines under a conservative-lookahead window protocol; processes and
// primitives are confined to one shard each, and the only cross-shard edge
// is Proc.CrossAt, which must respect the lookahead.
type Env struct {
	shs []*shard

	parallel   bool     // Shape ran: RunUntil uses the window protocol
	concurrent bool     // windows run on per-shard host goroutines, not inline
	workers    bool     // window workers have been spawned (first SetConcurrent(true))
	lookahead  Duration // minimum cross-shard scheduling distance (parallel only)

	spawnMu sync.Mutex // guards procs and live (proc exits race across shards)
	procs   []*Proc
	live    int // processes that have been spawned and not yet finished

	errMu  sync.Mutex  // guards err (process panics race across shards)
	err    error       // first process panic, adorned with a stack trace
	failed atomic.Bool // mirrors err != nil for lock-free dispatch checks

	closed bool
	dead   bool // Close ran: unfinished processes are being (or have been) reaped

	windowWG sync.WaitGroup // tracks in-flight shard windows (parallel only)
}

// shard is one serial event kernel: a clock, a sequence counter and a flat
// binary min-heap over []event keyed by (at, seq). Because seq is unique the
// key is a total order, so the pop sequence is independent of heap layout
// details — and unlike container/heap there is no interface boxing on push
// or type assertion on pop, which keeps the steady-state event loop
// allocation-free. All shard state except the inbox is touched only by the
// goroutine running the shard's dispatch loop and the process it switched
// into (or the driver between windows).
type shard struct {
	env      *Env
	id       int
	now      Time
	seq      uint64
	events   []event // binary min-heap ordered by (at, seq)
	cur      *Proc   // process the dispatch loop is switched into, if any
	horizon  Time    // active window bound; fast-path waits must not pass it
	executed uint64  // events executed, including fast-path waits
	switches uint64  // coroutine resumes: events that switched into a process

	// Parallel-mode fields (see parallel.go).
	start    chan struct{} // driver -> worker: run one window
	inboxMu  sync.Mutex
	inbox    []crossEvent // cross-shard arrivals, merged at the next barrier
	crossSeq uint64       // ticket counter for posts ORIGINATING on this shard
	windows  uint64       // window rounds this shard ran (parallel only)
	stalls   uint64       // barrier rounds this shard sat out on its bound

	// Host-side sampler hook (see SetSampler). The hook fires whenever the
	// shard clock crosses obsNext — checked at the two places the clock
	// advances (dispatch and the Wait fast path) — so sampling schedules no
	// kernel events and cannot perturb the event order.
	obsTick Duration
	obsNext Time
	obsFn   func(now Time)
}

type event struct {
	at  Time
	seq uint64
	p   *Proc  // process to wake, or
	fn  func() // callback to run in the dispatch loop
}

// NewEnv returns an empty single-shard environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{}
	e.shs = []*shard{{env: e, id: 0}}
	return e
}

// Now returns the current simulated time: the shard clock on a serial
// environment, and the maximum shard clock on a parallel one (the time the
// whole machine has provably reached when the driver observes it between
// RunUntil calls).
func (e *Env) Now() Time {
	if !e.parallel {
		return e.shs[0].now
	}
	var m Time
	for _, s := range e.shs {
		if s.now > m {
			m = s.now
		}
	}
	return m
}

// Executed reports how many events the environment has executed so far
// (timer wakes, callbacks, and fast-path clock advances), summed over all
// shards. It is the denominator for kernel events/sec measurements.
func (e *Env) Executed() uint64 {
	var n uint64
	for _, s := range e.shs {
		n += s.executed
	}
	return n
}

// Switches reports how many executed events resumed a process's coroutine,
// summed over all shards. The rest of Executed ran inline in a dispatch
// loop — callbacks, fast-path waits and script steps (script.go) — at
// roughly a third of the host cost. Unlike Executed it is a property of how
// the program is written, not of the simulated schedule.
func (e *Env) Switches() uint64 {
	var n uint64
	for _, s := range e.shs {
		n += s.switches
	}
	return n
}

// At schedules fn to run in the dispatch loop at time t (clamped to the
// present) on shard 0. Callbacks must not block; they are for lightweight
// bookkeeping such as statistics sampling. Consecutive due callbacks run
// back-to-back with no process switch.
func (e *Env) At(t Time, fn func()) { e.AtOn(0, t, fn) }

// AtOn schedules fn at time t on the given shard, clamped to that shard's
// present. It must be called from the driver between runs or from a process
// confined to the same shard; cross-shard scheduling from a running process
// must go through Proc.CrossAt, which enforces the lookahead.
func (e *Env) AtOn(shard int, t Time, fn func()) {
	s := e.shs[shard]
	if t < s.now {
		t = s.now
	}
	s.push(event{at: t, fn: fn})
}

// push assigns the next sequence number and sifts the event up the heap.
func (s *shard) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.events = append(s.events, ev)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := s.events[parent]
		if p.at < ev.at || (p.at == ev.at && p.seq < ev.seq) {
			break
		}
		s.events[i] = p
		i = parent
	}
	s.events[i] = ev
}

// pop removes and returns the minimum event.
func (s *shard) pop() event {
	top := s.events[0]
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n] = event{} // drop fn/p references for the collector
	s.events = s.events[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n {
				if s.events[r].at < s.events[c].at ||
					(s.events[r].at == s.events[c].at && s.events[r].seq < s.events[c].seq) {
					c = r
				}
			}
			if last.at < s.events[c].at || (last.at == s.events[c].at && last.seq < s.events[c].seq) {
				break
			}
			s.events[i] = s.events[c]
			i = c
		}
		s.events[i] = last
	}
	return top
}

// scheduleWake arranges for p to resume at time t on p's shard. Exactly one
// wake may be outstanding per waiting process; double wakes are a kernel bug.
// t is clamped to the shard's present so a wake computed from a slightly
// stale clock can never drag the shard backwards in time.
func (e *Env) scheduleWake(p *Proc, t Time) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.waking = true
	if t < p.sh.now {
		t = p.sh.now
	}
	p.sh.push(event{at: t, p: p})
}

// setErr records the first process panic; later panics are dropped.
func (e *Env) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
		e.failed.Store(true)
	}
	e.errMu.Unlock()
}

// firstErr returns the recorded process panic, if any.
func (e *Env) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Run executes events until none remain or a process panics. Processes left
// blocked on queues, resources or signals when the event queue drains are
// abandoned; use Close on queues and Fire on signals to release them for a
// clean shutdown, or Env.Close to reap whatever remains. Run returns the
// first process panic as an error.
func (e *Env) Run() error { return e.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps not after horizon. The clock
// stops at the last executed event (it does not jump to the horizon).
//
// On a parallel environment RunUntil runs the conservative window protocol
// (parallel.go) instead; within each shard the dispatch loop and event order
// are identical to the serial kernel.
func (e *Env) RunUntil(horizon Time) error {
	if e.closed {
		return fmt.Errorf("sim: environment already closed")
	}
	if e.parallel {
		return e.runParallel(horizon)
	}
	s := e.shs[0]
	s.horizon = horizon
	s.dispatch()
	if err := e.firstErr(); err != nil {
		e.closed = true
		return err
	}
	return nil
}

// dispatch is the shard's event loop: it executes events in (at, seq) order
// until none remains within the shard's horizon or a process has panicked.
// A callback event runs inline. A process event first advances the script
// the process parked in, if any, also inline; only when there is none, or it
// has finished, does the loop switch into the process's coroutine, coming
// back when the process parks or finishes. A central loop costs two
// coroutine switches per process change where handing control process to
// process would cost one, but a coroutine switch stays on the calling thread
// and never enters the Go scheduler.
func (s *shard) dispatch() {
	e := s.env
	for !e.failed.Load() && len(s.events) > 0 && s.events[0].at <= s.horizon {
		ev := s.pop()
		s.advance(ev.at)
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		p.waking = false
		s.cur = p
		if !p.script.parked || p.script.advance() {
			s.switches++
			p.next()
		}
		s.cur = nil
	}
}

// advance moves the shard clock to t for one executed event and fires the
// sampler if the clock crossed its next tick.
func (s *shard) advance(t Time) {
	s.now = t
	s.executed++
	if s.obsFn != nil && t >= s.obsNext {
		s.fireObs()
	}
}

// procKilled is the panic sentinel that unwinds a process Close is reaping;
// the process body's recovery treats it as a normal termination, not a
// process error.
type procKilled struct{}

// Close reaps every process still unfinished in the environment — processes
// left waiting when RunUntil returned early on a panic, blocked forever on
// queues and resources no one will ever signal, or spawned and never run —
// on every shard, not just shard 0. Stopping a started coroutine makes its
// yield return false, which park turns into a panic sentinel, so the
// process unwinds through its deferred calls and Live drops to zero; on a
// parallel environment the per-shard window workers are then shut down too.
// The environment is unusable afterwards; Close is idempotent and must be
// called from the driving goroutine, never from a process.
func (e *Env) Close() {
	if e.dead {
		return
	}
	e.dead = true
	e.closed = true
	for _, p := range e.procs {
		if p.done.Load() {
			continue
		}
		p.stop()
		if !p.done.Load() {
			// Never dispatched: stop ran none of the body, so not its
			// deferred exit either.
			p.exit()
		}
	}
	e.procs = nil
	for _, s := range e.shs {
		s.events = nil
		if s.start != nil {
			// Close the channel but leave the field set: the worker's own
			// read of s.start (its range setup) has no ordering edge back to
			// this goroutine if it never ran a window, so nilling the field
			// here would race with it. e.dead already makes Close idempotent.
			close(s.start) // window worker exits
		}
	}
}

// Spawn starts a new simulated process executing fn on shard 0. The process
// begins at the current simulated time, after the caller parks or returns.
// The name appears in diagnostics only.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc { return e.SpawnOn(0, name, fn) }

// SpawnOn starts a new simulated process confined to the given shard. On a
// parallel environment a process must only touch primitives bound to its
// own shard (see Queue.OnShard, Resource.OnShard, Signal.OnShard) and talk
// to other shards through Proc.CrossAt. Spawning onto a foreign shard while
// that shard is running is a data race; spawn at setup time, from the
// driver, or onto the caller's own shard.
func (e *Env) SpawnOn(shard int, name string, fn func(p *Proc)) *Proc {
	s := e.shs[shard]
	p := &Proc{env: e, sh: s, name: name}
	p.script.p = p
	e.spawnMu.Lock()
	e.live++
	// procs exists so Close can reap; drop finished entries once they
	// dominate, so long runs with many short-lived processes stay O(live).
	if len(e.procs) >= 64 && len(e.procs) >= 2*e.live {
		kept := e.procs[:0]
		for _, old := range e.procs {
			if !old.done.Load() {
				kept = append(kept, old)
			}
		}
		for i := len(kept); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = kept
	}
	e.procs = append(e.procs, p)
	e.spawnMu.Unlock()
	p.start(fn)
	e.scheduleWake(p, s.now)
	return p
}

// Live reports the number of spawned processes that have not finished.
func (e *Env) Live() int {
	e.spawnMu.Lock()
	defer e.spawnMu.Unlock()
	return e.live
}

// Proc is a simulated process: a coroutine that runs only when its shard's
// dispatch loop switches into it and must park (via Wait or a blocking
// kernel primitive) or return to give control back. All Proc methods must be
// called from the process's own body. A process is confined to the shard it
// was spawned on.
type Proc struct {
	env    *Env
	sh     *shard
	name   string
	waking bool
	done   atomic.Bool

	// The coroutine (coro.go): next switches into the process and returns
	// when it parks or finishes, yield parks it, stop reaps it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	script Script // the one script p builds and runs at a time (script.go)
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Shard returns the shard index the process is confined to.
func (p *Proc) Shard() int { return p.sh.id }

// Now returns the current simulated time on the process's shard.
func (p *Proc) Now() Time { return p.sh.now }

// park gives control back to the dispatch loop until some event wakes p.
// The caller must have arranged a wake (a timer event or registration on a
// queue/resource/signal waiter list) before parking. There is no case to
// short-cut here: a wake p scheduled for itself is never the heap top when p
// parks, because Wait's fast path takes every such case before it is pushed.
// yield returns false once Close has stopped the coroutine, at this park or
// at any later one reached from a deferred call while unwinding.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Wait advances the process's local time by d without consuming any modelled
// resource. Negative durations are treated as zero.
//
// When the wake this Wait would schedule is provably the next event — no
// queued event precedes it and it stays inside the shard's horizon — the
// clock advances directly: no heap push, no park, no switch.
// The schedule is bit-identical to the slow path because the skipped event
// would have been popped immediately with nothing able to run in between.
func (p *Proc) Wait(d Duration) {
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
	s := p.sh
	t := s.now.Add(d)
	if s.cur == p && t <= s.horizon && (len(s.events) == 0 || s.events[0].at > t) {
		s.advance(t)
		return true
	}
	p.env.scheduleWake(p, t)
	return false
}

// Yield reschedules the process at the current time, letting every other
// runnable event at this timestamp execute first.
func (p *Proc) Yield() { p.Wait(0) }

// Suspend parks the process indefinitely. The caller must have registered
// the process somewhere a later Resume will find it — Suspend/Resume is the
// primitive behind worker pools that reuse one process (and its coroutine)
// for many units of work instead of spawning per unit. A Resume costs
// exactly what a Spawn's initial wake costs (one event at the current
// time), so pooling changes allocation behavior, never the event schedule.
func (p *Proc) Suspend() { p.park() }

// Resume schedules suspended process p to continue at the current time on
// p's shard. Resuming a process that is not suspended (or already has a
// wake pending) panics. On a parallel environment Resume must come from p's
// own shard (or a CrossAt callback delivered to it).
func (e *Env) Resume(p *Proc) { e.scheduleWake(p, p.sh.now) }

// SetSampler installs a host-side observation hook on a shard: fn runs, on
// whatever is executing that shard, the first time the shard clock reaches
// each multiple of tick. The hook is out of band — it is invoked from the
// clock-advance path rather than from a scheduled event, so installing it
// pushes nothing onto the heap, allocates no sequence numbers and cannot
// change the event order, window bounds or any simulated result. fn must
// only read simulation state (and write host-side records); it runs with
// the shard mid-event, must not block and must not touch kernel
// primitives. A nil fn removes the hook. tick must be positive.
func (e *Env) SetSampler(shard int, tick Duration, fn func(now Time)) {
	s := e.shs[shard]
	if fn == nil {
		s.obsFn = nil
		return
	}
	if tick <= 0 {
		panic("sim: SetSampler needs a positive tick")
	}
	s.obsTick = tick
	s.obsNext = s.now.Add(tick)
	s.obsFn = fn
}

// fireObs invokes the sampler for the tick boundary the clock just crossed,
// then advances the next boundary past the present — one sample per tick
// while the shard is busy, a single catch-up sample (at the last crossed
// boundary) after an idle jump. The cadence is a pure function of the
// shard's event times, so it is identical on the serial and concurrent
// kernels.
func (s *shard) fireObs() {
	t := s.obsNext
	tick := Time(s.obsTick)
	if behind := s.now - t; behind >= tick {
		k := behind / tick
		t += k * tick
	}
	s.obsNext = t + tick
	s.obsFn(t)
}

// ShardCounters returns one shard's cumulative kernel counters: events
// executed (including fast-path clock advances), window rounds run and
// barrier rounds sat out (both zero on the serial kernel). Safe from the
// driver between runs or from code executing on that shard.
func (e *Env) ShardCounters(shard int) (executed, windows, stalls uint64) {
	s := e.shs[shard]
	return s.executed, s.windows, s.stalls
}
