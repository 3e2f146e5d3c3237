package sim

// Script is a short program that a process hands to the kernel to run on its
// behalf: the kernel's blocking verbs (acquire a Resource, wait a duration,
// release, await a Signal), Add, which bumps a traffic counter in passing,
// and continuations, caller code that runs at its instant and may append
// further steps. The process parks at most once per script, however many of
// its steps have to wait: whenever the process's wake pops, the dispatch
// loop advances the script inline and switches back into the coroutine only
// when the script has finished.
//
// The interpreter performs exactly the kernel mutations the process would
// perform making the same calls one by one, in the same order at the same
// simulated instants: the same waiter-ring pushes and wake events, the same
// busy-time stamps, the same Wait fast-path test and the same re-check of a
// resource after a release woke the process (a later arrival may have
// barged in). A coroutine switch touches no kernel
// state, so every event is pushed in the same order either way and the pop
// order, Executed and every simulated result are bit-identical; only
// Switches falls.
//
// A continuation (Then) is how a blocking chain with work between its
// blocking calls still parks once: anything the caller does between two
// blocking calls that reads or writes simulation state other processes can
// see (a tree lookup, a residency check, a lock grant) has to happen at its
// simulated instant, and a continuation runs exactly there, after the steps
// before it and before the ones it appends. The contract:
//
//   - a continuation never blocks: a blocking primitive called from one
//     (Wait, Await, Suspend, Queue.Get, Script, Run) panics. It appends the
//     steps it needs instead, and one more continuation behind them to go on
//     once they have run; Proc.Continuing tells code that can run either way
//     (a task charge reaching its burst cap) to append;
//   - it runs in whichever context advances the script: the process's own
//     body inside Run, or the dispatch loop after the process parked. It
//     may do anything the process could do at that instant but block;
//   - a panic in a continuation stops the script and is raised by Run on the
//     process's own stack, so it is reported under the process's name like
//     any other process panic.
//
// Each process owns one Script and reuses its step buffer, so building and
// running a script allocates nothing in steady state. Proc.Script returns it
// empty and Run leaves it empty again, ready for the next steps; a
// continuation that is the last step empties it before it runs, so a chain
// that appends as it goes reuses the same few steps however long it runs.
type Script struct {
	p      *Proc
	steps  []step
	pc     int
	parked bool // p yielded mid-script: dispatch advances it when p's wake pops
	cont   bool // a continuation step is running
	fault  any  // a step's panic, raised in p's own context by Run
}

type stepKind uint8

const (
	stepAcquire stepKind = iota
	stepWait
	stepRelease
	stepAdd
	stepAwait    // not yet begun
	stepAwaiting // enlisted with the signal; its Fire is the wake
	stepThen
)

// step is one verb. x is what it acts on: the Resource of an acquire or a
// release, the counter of an add, the Signal of an await, the Continuation
// of a continuation. v is the wait's duration or the counter's addend, by
// kind. One two-word interface
// field shared by every kind keeps a step at four words; a probe's script
// runs to a few dozen steps.
type step struct {
	kind stepKind
	x    any
	v    int64
}

// Script returns the process's script, empty and ready to be built. A
// process builds and runs one script at a time: calling any blocking kernel
// primitive between Script and Run would reuse the buffer under the caller,
// so that panics.
func (p *Proc) Script() *Script {
	p.mayBlock()
	sc := &p.script
	if len(sc.steps) != 0 {
		panic("sim: process " + p.name + " starts a script while it is still building one")
	}
	return sc
}

// Acquire appends a step that claims one slot of r, queueing in FIFO order
// while none is free.
func (sc *Script) Acquire(r *Resource) {
	sc.steps = append(sc.steps, step{kind: stepAcquire, x: r})
}

// Add appends a step that advances *ctr by n and never waits. It is for the
// traffic counters owners keep beside a resource (a device's bytes, a
// fabric's messages): harnesses snapshot those at measurement-window edges,
// so a counter has to move at the instant its transfer starts, not when the
// script that contains the transfer was built.
func (sc *Script) Add(ctr *int64, n int64) {
	sc.steps = append(sc.steps, step{kind: stepAdd, x: ctr, v: n})
}

// Wait appends a step that advances the process's time by d. A zero wait is
// still a step: it yields to every event already due at that instant.
func (sc *Script) Wait(d Duration) {
	sc.steps = append(sc.steps, step{kind: stepWait, v: int64(d)})
}

// Release appends a step that frees one slot of r.
func (sc *Script) Release(r *Resource) {
	sc.steps = append(sc.steps, step{kind: stepRelease, x: r})
}

// Await appends a step that waits for s to complete; a completed signal
// passes at once.
func (sc *Script) Await(s *Signal) {
	sc.steps = append(sc.steps, step{kind: stepAwait, x: s})
}

// Continuation is caller code a script runs at its instant (Then). A
// blocking chain's state is its continuation: Continue does what the chain
// does next and appends what it waits on, and the state itself behind that.
// Appending a pointer allocates nothing.
type Continuation interface {
	Continue(sc *Script)
}

// Then appends a continuation: c.Continue runs when the script reaches it,
// at that simulated instant, with the script, to which it may append further
// steps (see the contract on Script).
func (sc *Script) Then(c Continuation) {
	sc.steps = append(sc.steps, step{kind: stepThen, x: c})
}

// Pending reports whether steps are queued that have not yet run. A
// continuation checks it after each thing it does that may have appended
// steps (a task charge that reached its burst cap): when it is true, the
// continuation must append the next one behind them and return.
func (sc *Script) Pending() bool { return sc.pc < len(sc.steps) }

// Use appends acquire, hold for d, release: a service time at r.
func (sc *Script) Use(r *Resource, d Duration) {
	sc.Acquire(r)
	sc.Wait(d)
	sc.Release(r)
}

// Run executes the script and returns when its last step is done, leaving
// the script empty. It must be called from the process's own body.
func (sc *Script) Run() {
	sc.p.mayBlock()
	alive := true
	if !sc.advance() {
		sc.parked = true
		alive = sc.p.yield(struct{}{})
		sc.parked = false
	}
	sc.steps, sc.pc = sc.steps[:0], 0
	if !alive {
		// Close is reaping the process. The script is empty again first:
		// deferred calls may run scripts of their own while it unwinds.
		panic(procKilled{})
	}
	if f := sc.fault; f != nil {
		sc.fault = nil
		panic(f)
	}
}

// advance runs steps until one has to wait for an event (false: a wake for
// the process is scheduled or it sits in a waiter ring) or none is left
// (true). It runs in the process's own context from Run and in the dispatch
// loop's context afterwards; Env.cur is the process in both. A step that
// would panic, a continuation's panic included, stops the script instead and
// leaves the panic in fault, so that it is raised on the process's own stack
// and reported under its name, not in the dispatch loop.
func (sc *Script) advance() bool {
	p := sc.p
	for sc.pc < len(sc.steps) {
		st := &sc.steps[sc.pc]
		switch st.kind {
		case stepAcquire:
			r := st.x.(*Resource)
			if r.inUse >= r.capacity {
				r.waiters.push(p)
				return false
			}
			r.stamp()
			r.inUse++
			sc.pc++
		case stepWait:
			sc.pc++
			if !p.startWait(Duration(st.v)) {
				return false
			}
		case stepRelease:
			r := st.x.(*Resource)
			if r.inUse <= 0 {
				sc.fault = "sim: release of idle resource " + r.name
				return true
			}
			r.release()
			sc.pc++
		case stepAdd:
			*st.x.(*int64) += st.v
			sc.pc++
		case stepAwait:
			if s := st.x.(*Signal); !s.fired {
				s.enlist(p)
				st.kind = stepAwaiting
				return false
			}
			sc.pc++
		case stepAwaiting:
			st.x.(*Signal).woken--
			sc.pc++
		case stepThen:
			c := st.x.(Continuation)
			sc.pc++
			if sc.pc == len(sc.steps) {
				// Everything before it has run: what fn appends starts the
				// buffer over.
				sc.steps, sc.pc = sc.steps[:0], 0
			}
			if !sc.call(c) {
				return true
			}
		}
	}
	return true
}

// call runs one continuation, reporting false when it panicked: the panic
// is kept in fault for Run to raise.
func (sc *Script) call(c Continuation) (ok bool) {
	defer func() {
		sc.cont = false
		if r := recover(); r != nil {
			sc.fault = r
		}
	}()
	sc.cont = true
	c.Continue(sc)
	return true
}
