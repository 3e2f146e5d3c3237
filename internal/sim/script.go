package sim

// Script is a short program of the kernel's three blocking verbs — acquire a
// Resource, wait a duration, release, plus Add, which bumps a traffic counter
// in passing — that a process hands to the kernel to run on its behalf. The
// process parks at most once per script, however many of its steps have to
// wait: whenever the process's wake pops, the dispatch loop advances the
// script inline and switches back into the coroutine only when the script
// has finished.
//
// The interpreter performs exactly the kernel mutations the process would
// perform making the same calls one by one, in the same order at the same
// simulated instants: the same waiter-ring pushes and wake events, the same
// busy-time stamps and acquire/wait accounting, the same Wait fast-path test
// and the same re-check of a resource after a release woke the process (a
// later arrival may have barged in). A coroutine switch touches no kernel
// state, so every event is pushed in the same order either way and the pop
// order, Executed and every simulated result are bit-identical; only
// Switches falls.
//
// Steps are kernel verbs only, never caller code. Anything the caller does
// between two blocking calls that reads or writes simulation state other
// processes can see (a tree lookup, a residency check, a recency stamp) has
// to happen at its simulated instant, so the caller ends the script there,
// runs it, does the work and builds on.
//
// Each process owns one Script and reuses its step buffer, so building and
// running a script allocates nothing in steady state. Proc.Script returns it
// empty and Run leaves it empty again, ready for the next steps.
type Script struct {
	p      *Proc
	steps  []step
	pc     int
	parked bool   // p yielded mid-script: dispatch advances it when p's wake pops
	fault  string // a step's kernel panic, raised in p's own context by Run
}

type stepKind uint8

const (
	stepAcquire   stepKind = iota // not yet begun
	stepAcquiring                 // counted and timed; waiting for a free slot
	stepWait
	stepRelease
	stepAdd
)

// step is one verb. v is the wait's duration, the instant an acquire in
// progress began, or the counter's addend, by kind; sharing the word keeps a
// step at four words, and a probe's script runs to a few dozen steps.
type step struct {
	kind stepKind
	r    *Resource // acquire, release
	ctr  *int64    // add
	v    int64
}

// Script returns the process's script, empty and ready to be built. A
// process builds and runs one script at a time: calling any blocking kernel
// primitive between Script and Run would reuse the buffer under the caller,
// so that panics.
func (p *Proc) Script() *Script {
	sc := &p.script
	if len(sc.steps) != 0 {
		panic("sim: process " + p.name + " starts a script while it is still building one")
	}
	return sc
}

// Acquire appends a step that claims one slot of r, queueing in FIFO order
// while none is free.
func (sc *Script) Acquire(r *Resource) {
	sc.steps = append(sc.steps, step{kind: stepAcquire, r: r})
}

// Add appends a step that advances *ctr by n and never waits. It is for the
// traffic counters owners keep beside a resource (a device's bytes, a
// fabric's messages): harnesses snapshot those at measurement-window edges,
// so a counter has to move at the instant its transfer starts, not when the
// script that contains the transfer was built.
func (sc *Script) Add(ctr *int64, n int64) {
	sc.steps = append(sc.steps, step{kind: stepAdd, ctr: ctr, v: n})
}

// Wait appends a step that advances the process's time by d. A zero wait is
// still a step: it yields to every event already due at that instant.
func (sc *Script) Wait(d Duration) {
	sc.steps = append(sc.steps, step{kind: stepWait, v: int64(d)})
}

// Release appends a step that frees one slot of r.
func (sc *Script) Release(r *Resource) {
	sc.steps = append(sc.steps, step{kind: stepRelease, r: r})
}

// Use appends acquire, hold for d, release: a service time at r.
func (sc *Script) Use(r *Resource, d Duration) {
	sc.Acquire(r)
	sc.Wait(d)
	sc.Release(r)
}

// Run executes the script and returns when its last step is done, leaving
// the script empty. It must be called from the process's own body.
func (sc *Script) Run() {
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
	if f := sc.fault; f != "" {
		sc.fault = ""
		panic(f)
	}
}

// advance runs steps until one has to wait for an event (false: a wake for
// the process is scheduled or it sits in a waiter ring) or none is left
// (true). It runs in the process's own context from Run and in the dispatch
// loop's context afterwards; Env.cur is the process in both. A step that
// would panic stops the script instead and leaves the message in fault, so
// that the panic is raised on the process's own stack and reported under
// its name, not in the dispatch loop.
func (sc *Script) advance() bool {
	p := sc.p
	for sc.pc < len(sc.steps) {
		st := &sc.steps[sc.pc]
		r := st.r
		switch st.kind {
		case stepAcquire:
			r.acquires++
			st.v = int64(r.env.now)
			st.kind = stepAcquiring
			fallthrough
		case stepAcquiring:
			if r.inUse >= r.capacity {
				r.waiters.push(p)
				return false
			}
			r.waited += r.env.now.Sub(Time(st.v))
			r.stamp()
			r.inUse++
			sc.pc++
		case stepWait:
			sc.pc++
			if !p.startWait(Duration(st.v)) {
				return false
			}
		case stepRelease:
			if r.inUse <= 0 {
				sc.fault = "sim: release of idle resource " + r.name
				return true
			}
			r.release()
			sc.pc++
		case stepAdd:
			*st.ctr += st.v
			sc.pc++
		}
	}
	return true
}
