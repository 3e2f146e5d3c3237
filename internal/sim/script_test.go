package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// handAcquire is Resource.Acquire as processes ran it before scripts: the
// process itself loops over the waiter ring and parks once per failed try.
// It is the reference the script interpreter is compared against.
func handAcquire(r *Resource, p *Proc) {
	for r.inUse >= r.capacity {
		r.waiters.push(p)
		p.park()
	}
	r.stamp()
	r.inUse++
}

// acquire claims one slot of r for p as a one-step script.
func acquire(r *Resource, p *Proc) {
	sc := p.Script()
	sc.Acquire(r)
	sc.Run()
}

// tryAcquire claims a slot of r only if one is free right now. Tests use it
// to arrange contention without a process, so without a switch.
func tryAcquire(r *Resource) bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.stamp()
	r.inUse++
	return true
}

// chain is the blocking sequence the equivalence tests run three ways: a
// service time at a, a device-shaped transfer through b (hold, release,
// trailing latency that may be zero), with sig a wait for a signal that a
// callback fires sigAt after the chain began, and a second service time at
// a. Between the first service time and the transfer the chain counts 64
// bytes: a kernel Add when scripted, host work in a continuation when
// continued.
type chain struct {
	a, b          *Resource
	useA, holdB   Duration
	latB, secondA Duration
	bytes         *int64
	sig           *Signal
	fire          func() // sig.Fire, bound once
	sigAt         Duration
}

func (c chain) byHand(p *Proc) {
	if c.sig != nil {
		p.env.At(p.Now().Add(c.sigAt), c.fire)
	}
	handAcquire(c.a, p)
	p.Wait(c.useA)
	c.a.Release()
	*c.bytes += 64
	handAcquire(c.b, p)
	p.Wait(c.holdB)
	c.b.Release()
	p.Wait(c.latB)
	if c.sig != nil {
		c.sig.Await(p)
		c.sig.Reset()
	}
	handAcquire(c.a, p)
	p.Wait(c.secondA)
	c.a.Release()
}

func (c chain) scripted(p *Proc) {
	if c.sig != nil {
		p.env.At(p.Now().Add(c.sigAt), c.fire)
	}
	sc := p.Script()
	sc.Use(c.a, c.useA)
	sc.Add(c.bytes, 64)
	sc.Acquire(c.b)
	sc.Wait(c.holdB)
	sc.Release(c.b)
	sc.Wait(c.latB)
	if c.sig != nil {
		sc.Await(c.sig)
	}
	sc.Use(c.a, c.secondA)
	sc.Run()
	if c.sig != nil {
		c.sig.Reset()
	}
}

// continued runs the chain as a script of one continuation that builds the
// rest as it goes: each stage does its host work at its instant and appends
// the steps up to the next, and itself behind them. cc is the caller's, so
// that a looping process reuses it.
func (c chain) continued(p *Proc, cc *chainCont) {
	*cc = chainCont{c: c}
	sc := p.Script()
	sc.Then(cc)
	sc.Run()
}

// chainCont is chain.continued's state.
type chainCont struct {
	c     chain
	stage int
}

func (cc *chainCont) Continue(sc *Script) {
	c := cc.c
	cc.stage++
	switch cc.stage {
	case 1:
		if c.sig != nil {
			sc.p.env.At(sc.p.Now().Add(c.sigAt), c.fire)
		}
		sc.Use(c.a, c.useA)
		sc.Then(cc)
	case 2:
		*c.bytes += 64
		sc.Acquire(c.b)
		sc.Wait(c.holdB)
		sc.Release(c.b)
		sc.Wait(c.latB)
		if c.sig != nil {
			sc.Await(c.sig)
		}
		sc.Then(cc)
	case 3:
		if c.sig != nil {
			c.sig.Reset()
		}
		sc.Use(c.a, c.secondA)
	}
}

// chainMode is how a test runs a chain.
type chainMode int

const (
	byHand chainMode = iota
	scripted
	continued
)

func (m chainMode) String() string { return [...]string{"by hand", "scripted", "continued"}[m] }

func (c chain) run(p *Proc, m chainMode, cc *chainCont) {
	switch m {
	case byHand:
		c.byHand(p)
	case scripted:
		c.scripted(p)
	default:
		c.continued(p, cc)
	}
}

// TestScriptStormMatchesByHand runs the storm with its resource step widened
// to a chain over two resources and a signal, once with every acquire, wait,
// release and await made by the process itself, once as a single script and
// once as a script of continuations, and wants the same trace digest, the
// same event count and the same resource accounting. Fewer resumes is the
// only permitted difference.
func TestScriptStormMatchesByHand(t *testing.T) {
	run := func(m chainMode) (digest string, executed, switches uint64, acct string) {
		env := NewEnv()
		defer env.Close()
		const nGroups = 4
		as := make([]*Resource, nGroups) // the storm's own, noted on first use
		bs := make([]*Resource, nGroups)
		bytes := make([]int64, nGroups)
		for s := range bs {
			bs[s] = NewResource(env, fmt.Sprintf("b%d", s), 1)
		}
		digest = runStormUsing(t, env, nGroups, 6, 60, func(s int, r *Resource, p *Proc, d Duration) {
			as[s] = r
			sig := NewSignal(env)
			c := chain{a: r, b: bs[s], useA: d, holdB: stormQuantum, secondA: 2 * stormQuantum, bytes: &bytes[s],
				sig: sig, fire: sig.Fire, sigAt: d + 3*stormQuantum}
			if d == stormQuantum {
				c.latB = stormQuantum // the others end the transfer on a zero wait
			}
			c.run(p, m, new(chainCont))
		})
		for _, r := range append(as, bs...) {
			acct += fmt.Sprintf("%s:%d ", r.name, r.BusyTime())
		}
		acct += fmt.Sprint(bytes)
		return digest, env.Executed(), env.Switches(), acct
	}
	hd, he, hs, ha := run(byHand)
	for _, m := range []chainMode{scripted, continued} {
		d, e, s, a := run(m)
		if hd != d {
			t.Errorf("trace digest by hand %s, %v %s", hd, m, d)
		}
		if he != e {
			t.Errorf("Executed by hand %d, %v %d", he, m, e)
		}
		if ha != a {
			t.Errorf("resource accounting differs:\n by hand  %s\n %v %s", ha, m, a)
		}
		if s >= hs {
			t.Errorf("%v resumed %d times, by hand %d: nothing was saved", m, s, hs)
		}
	}
}

// TestScriptFuzzSeedsMatchByHand interprets FuzzKernel's seed corpus as
// programs of waits, chains, queue traffic and posted callbacks, three
// processes to a group contending for that group's two resources, and wants
// by-hand, scripted and continued runs to agree.
func TestScriptFuzzSeedsMatchByHand(t *testing.T) {
	seeds := [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]byte("queue-order"),
		{2, 2, 2, 3, 3, 3, 4, 4, 0, 0, 1, 1, 4, 4, 4},
		{255, 254, 253, 4, 4, 4, 4, 0, 128, 64, 32, 16, 8, 4, 2, 1},
	}
	const nGroups, perGroup = 4, 3
	run := func(data []byte, m chainMode) (string, uint64) {
		env := NewEnv()
		defer env.Close()
		traces := make([][]stormRec, nGroups)
		bytes := make([]int64, nGroups)
		for s := 0; s < nGroups; s++ {
			s := s
			a := NewResource(env, fmt.Sprintf("a%d", s), 2)
			b := NewResource(env, fmt.Sprintf("b%d", s), 1)
			q := NewQueue[uint64](env, fmt.Sprintf("q%d", s), 0)
			for k := 0; k < perGroup; k++ {
				k := k
				sig := NewSignal(env)
				var cc chainCont
				env.Spawn(fmt.Sprintf("fz%d.%d", s, k), func(p *Proc) {
					note := func(kind uint8, v uint64) {
						traces[s] = append(traces[s], stormRec{p.Now(), kind, uint8(s), uint8(k), v})
					}
					// Every process of a group walks the whole input from its
					// own offset, so they collide on a and b.
					for i := range data {
						op := data[(i+k*5+s)%len(data)]
						switch op % 4 {
						case 0:
							p.Wait(Duration(stormQuantum * (1 + int(op)%3)))
						case 1:
							c := chain{a: a, b: b, bytes: &bytes[s],
								useA:    Duration(stormQuantum * (1 + int(op)%4)),
								holdB:   Duration(stormQuantum * (1 + int(op>>2)%2)),
								latB:    Duration(stormQuantum * (int(op>>3) % 2)),
								secondA: stormQuantum}
							if op&16 != 0 {
								c.sig, c.fire, c.sigAt = sig, sig.Fire, Duration(stormQuantum*(1+int(op>>5)))
							}
							c.run(p, m, &cc)
						case 2:
							q.Put(p, uint64(op))
							if v, ok := q.TryGet(); ok {
								note(3, v)
							}
						case 3:
							dst := (s + 1) % nGroups
							at := p.Now().Add(stormPost + Duration(s*8+3))
							env.At(at, func() {
								traces[dst] = append(traces[dst], stormRec{at, 2, uint8(s), uint8(k), uint64(op)})
							})
						}
						note(op%4, uint64(i))
					}
				})
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return stormDigest(traces) + fmt.Sprint(bytes), env.Executed()
	}
	for i, data := range seeds {
		hd, he := run(data, byHand)
		for _, m := range []chainMode{scripted, continued} {
			d, e := run(data, m)
			if hd != d || he != e {
				t.Errorf("seed %d: by hand %s / %d events, %v %s / %d events", i, hd, he, m, d, e)
			}
		}
	}
}

// burst is a miniature of platform.Task's charge path: charges accumulate
// and, once they reach the cap, are served at core before the next charge is
// made. Each charge is host work whose instant the trace records.
type burst struct {
	core    *Resource
	pending Duration
	charges []Duration
	i       int
	note    func(i int)
}

const burstCap = 5 * stormQuantum

// byHand makes each charge in the process, parking on the core whenever the
// cap is reached, and flushes the rest at the end.
func (b *burst) byHand(p *Proc) {
	for i, d := range b.charges {
		b.note(i)
		if b.pending += d; b.pending >= burstCap {
			b.core.Use(p, b.pending)
			b.pending = 0
		}
	}
	if b.pending != 0 {
		b.core.Use(p, b.pending)
		b.pending = 0
	}
}

// Continue makes the same charges from a continuation: where the cap is
// reached it appends the core time and itself behind it, so the next charge
// is made after the core time is served, as by hand.
func (b *burst) Continue(sc *Script) {
	for b.i < len(b.charges) {
		i := b.i
		b.i++
		b.note(i)
		if b.pending += b.charges[i]; b.pending >= burstCap {
			sc.Use(b.core, b.pending)
			b.pending = 0
			sc.Then(b)
			return
		}
	}
	if b.pending != 0 {
		sc.Use(b.core, b.pending)
		b.pending = 0
	}
}

// TestScriptContinuationCutsAtBurstCap runs processes that charge a shared
// core in bursts, once parking by hand at every cut and once as
// continuations that append the core time at the cut and go on behind it,
// and wants the same trace, event count and core accounting, with one park
// per process's chain at most.
func TestScriptContinuationCutsAtBurstCap(t *testing.T) {
	const procs, rounds = 5, 20
	run := func(continued bool) (string, uint64, uint64, string) {
		env := NewEnv()
		defer env.Close()
		core := NewResource(env, "core", 2)
		traces := make([][]stormRec, procs)
		r := NewRand(11)
		for k := 0; k < procs; k++ {
			k := k
			rk := r.Split()
			env.Spawn(fmt.Sprintf("burst%d", k), func(p *Proc) {
				b := &burst{core: core}
				b.note = func(i int) {
					traces[k] = append(traces[k], stormRec{p.Now(), 0, 0, uint8(k), uint64(i)})
				}
				for j := 0; j < rounds; j++ {
					p.Wait(Duration(stormQuantum * (1 + rk.Intn(4))))
					b.charges, b.i = b.charges[:0], 0
					for n := 3 + rk.Intn(8); n > 0; n-- {
						b.charges = append(b.charges, Duration(stormQuantum*(1+rk.Intn(3))))
					}
					if continued {
						sc := p.Script()
						sc.Then(b)
						sc.Run()
					} else {
						b.byHand(p)
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		acct := fmt.Sprint(core.BusyTime())
		return stormDigest(traces), env.Executed(), env.Switches(), acct
	}
	hd, he, hs, ha := run(false)
	cd, ce, cs, ca := run(true)
	if hd != cd || he != ce || ha != ca {
		t.Errorf("by hand %s / %d events / core %s, continued %s / %d events / core %s", hd, he, ha, cd, ce, ca)
	}
	if cs >= hs {
		t.Errorf("continued resumed %d times, by hand %d: nothing was saved", cs, hs)
	}
}

// TestScriptContinuationAppends checks that a continuation runs at its
// instant and that the steps it appends run after it, in order, with the
// process parked once for all of them.
func TestScriptContinuationAppends(t *testing.T) {
	ns := func(n int) Time { return Time(n) * Time(Nanosecond) }
	var seen []string
	got := resumesOf(t, func(env *Env, r *Resource) {
		tryAcquire(r)
		env.At(ns(10), r.Release)
		env.At(ns(4), func() { seen = append(seen, fmt.Sprintf("callback@%v", env.Now())) })
	}, func(p *Proc, r *Resource) {
		sc := p.Script()
		sc.Wait(2 * Nanosecond)
		sc.Then(contFunc(func(sc *Script) {
			seen = append(seen, fmt.Sprintf("first@%v", p.Now()))
			sc.Use(r, 3*Nanosecond) // queues behind the holder until 10ns
			sc.Then(contFunc(func(sc *Script) {
				seen = append(seen, fmt.Sprintf("second@%v", p.Now()))
			}))
		}))
		sc.Run()
		seen = append(seen, fmt.Sprintf("returned@%v", p.Now()))
	})
	want := fmt.Sprintf("[first@%v callback@%v second@%v returned@%v]", ns(2), ns(4), ns(13), ns(13))
	if fmt.Sprint(seen) != want {
		t.Errorf("order %v, want %v", seen, want)
	}
	if got != 1 {
		t.Errorf("%d resumes, want 1", got)
	}
}

// contFunc is a function as a Continuation.
type contFunc func(sc *Script)

func (f contFunc) Continue(sc *Script) { f(sc) }

// resumesOf runs body as the only process of a fresh environment and
// returns how many times the process was resumed while inside it. setup
// arranges contention and intervening events with tryAcquire and callbacks
// only, which never switch, so every resume counted is the body's own.
func resumesOf(t *testing.T, setup func(env *Env, r *Resource), body func(p *Proc, r *Resource)) uint64 {
	t.Helper()
	env := NewEnv()
	defer env.Close()
	r := NewResource(env, "r", 1)
	setup(env, r)
	var n uint64
	env.Spawn("subject", func(p *Proc) {
		before := env.Switches()
		body(p, r)
		n = env.Switches() - before
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if r.inUse != 0 || r.waiters.n != 0 {
		t.Fatalf("resource left with %d held, %d queued", r.inUse, r.waiters.n)
	}
	return n
}

// TestScriptResumeCounts pins what a script saves, as exact counts. Each
// case forces every wait onto the slow path with a callback due before it
// ends; without that a lone process would advance the clock directly and
// never park at all.
func TestScriptResumeCounts(t *testing.T) {
	ns := func(n int) Time { return Time(n) * Time(Nanosecond) }
	noop := func() {}
	transfer := func(p *Proc, r *Resource) {
		sc := p.Script()
		sc.Acquire(r)
		sc.Wait(10 * Nanosecond)
		sc.Release(r)
		sc.Wait(5 * Nanosecond)
		sc.Run()
	}
	for _, c := range []struct {
		name   string
		want   uint64 // one park per script
		byHand uint64 // what the same calls cost made one by one, for the record
		setup  func(env *Env, r *Resource)
		body   func(p *Proc, r *Resource)
		endAt  Time
	}{
		{"contended Use", 1, 2, func(env *Env, r *Resource) {
			tryAcquire(r)
			env.At(ns(10), r.Release)
			env.At(ns(12), noop)
		}, func(p *Proc, r *Resource) { r.Use(p, 5*Nanosecond) }, ns(15)},
		{"uncontended transfer", 1, 2, func(env *Env, r *Resource) {
			env.At(ns(5), noop)
			env.At(ns(12), noop)
		}, transfer, ns(15)},
		{"contended transfer", 1, 3, func(env *Env, r *Resource) {
			tryAcquire(r)
			env.At(ns(3), r.Release)
			env.At(ns(5), noop)
			env.At(ns(15), noop)
		}, transfer, ns(18)},
		{"uncontended fast path", 0, 0, func(*Env, *Resource) {}, transfer, ns(15)},
	} {
		var end Time
		got := resumesOf(t, c.setup, func(p *Proc, r *Resource) {
			c.body(p, r)
			end = p.Now()
		})
		if got != c.want {
			t.Errorf("%s: %d resumes, want %d (%d by hand)", c.name, got, c.want, c.byHand)
		}
		if end != c.endAt {
			t.Errorf("%s: finished at %v, want %v", c.name, end, c.endAt)
		}
	}
}

// TestScriptCloseReapsMidScript checks that Close unwinds a process parked
// inside a script, whichever kind of step it stopped at, through its
// deferred calls, and that a script run from a deferred call while the
// process is being reaped neither hangs nor turns into a process error.
func TestScriptCloseReapsMidScript(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	r := NewResource(env, "r", 1)
	var unwound []string
	env.Spawn("holder", func(p *Proc) {
		defer func() { unwound = append(unwound, "holder") }()
		sc := p.Script()
		sc.Acquire(r)
		sc.Wait(Second) // parked here, holding r, when the run stops
		sc.Release(r)
		sc.Run()
	})
	env.Spawn("queued", func(p *Proc) {
		defer func() {
			unwound = append(unwound, "queued")
			r.Use(p, Nanosecond) // r is held for good: this parks and is reaped too
			t.Error("a script run while being reaped returned")
		}()
		p.Wait(Nanosecond)
		r.Use(p, Nanosecond) // parked in r's waiter ring
		t.Error("queued process got the resource")
	})
	if err := env.RunUntil(Time(Microsecond)); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 2 || r.waiters.n != 1 {
		t.Fatalf("Live = %d, queue = %d; want both processes parked mid-script", env.Live(), r.waiters.n)
	}
	env.Close()
	if env.Live() != 0 {
		t.Errorf("Close left %d processes", env.Live())
	}
	if len(unwound) != 2 {
		t.Errorf("deferred calls run: %v, want both", unwound)
	}
	if err := env.err; err != nil {
		t.Errorf("reaping reported a process error: %v", err)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across Close: baseline %d, now %d", baseline, n)
	}
}

// TestScriptCloseReapsMidContinuation checks that Close unwinds a process
// parked on a step a continuation appended, that the continuation queued
// behind that step never runs, and that the process's script is reusable by
// its deferred calls.
func TestScriptCloseReapsMidContinuation(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "r", 1)
	tryAcquire(r) // held for good
	var unwound, ranPast bool
	env.Spawn("continuer", func(p *Proc) {
		defer func() {
			unwound = true
			sc := p.Script() // empty again: Run cleared it
			sc.Add(new(int64), 1)
			sc.Run()
		}()
		sc := p.Script()
		sc.Then(contFunc(func(sc *Script) {
			sc.Acquire(r) // parked here when the run stops
			sc.Then(contFunc(func(*Script) { ranPast = true }))
		}))
		sc.Run()
	})
	if err := env.RunUntil(Time(Microsecond)); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 1 || r.waiters.n != 1 {
		t.Fatalf("Live = %d, queue = %d; want the process parked mid-continuation", env.Live(), r.waiters.n)
	}
	env.Close()
	if env.Live() != 0 || !unwound || ranPast {
		t.Errorf("Live = %d, unwound %v, continuation past the park ran %v; want 0, true, false", env.Live(), unwound, ranPast)
	}
	if err := env.err; err != nil {
		t.Errorf("reaping reported a process error: %v", err)
	}
}

// TestScriptPanicsNameTheProcess checks that a kernel panic raised by a step
// the dispatch loop ran (the process was parked in an earlier step) is still
// reported as that process's error, and ends the run like any other.
func TestScriptPanicsNameTheProcess(t *testing.T) {
	t.Run("idle release", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		r := NewResource(env, "r", 1)
		env.At(Time(Nanosecond), func() {})
		env.Spawn("double", func(p *Proc) {
			sc := p.Script()
			sc.Use(r, 2*Nanosecond)
			sc.Release(r)
			sc.Run()
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), `"double"`) ||
			!strings.Contains(err.Error(), "release of idle resource r") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("continuation", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		env.At(Time(Nanosecond), func() {})
		env.Spawn("thrower", func(p *Proc) {
			sc := p.Script()
			sc.Wait(2 * Nanosecond) // parks: the dispatch loop runs what follows
			sc.Then(contFunc(func(*Script) { panic("thrown in a continuation") }))
			sc.Wait(Nanosecond)
			sc.Run()
			t.Error("Run returned past a panicking continuation")
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), `"thrower"`) ||
			!strings.Contains(err.Error(), "thrown in a continuation") {
			t.Fatalf("err = %v", err)
		}
		if env.Now() != Time(2*Nanosecond) {
			t.Errorf("the run went on to %v after the panic", env.Now())
		}
	})
	t.Run("blocking in a continuation", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		env.Spawn("blocker", func(p *Proc) {
			sc := p.Script()
			sc.Then(contFunc(func(*Script) { p.Wait(Nanosecond) }))
			sc.Run()
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), `"blocker"`) ||
			!strings.Contains(err.Error(), "inside a continuation") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("nested build", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		r := NewResource(env, "r", 1)
		env.Spawn("nester", func(p *Proc) {
			sc := p.Script()
			sc.Wait(Nanosecond)
			r.Use(p, Nanosecond) // a blocking call between Script and Run
			sc.Run()
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "still building") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestScriptsAllocateNothing checks the per-process step buffer is reused:
// once every process has run its longest script, a stretch of simulation
// made of nothing but contended scripts, continued ones with awaits among
// them, allocates nothing.
func TestScriptsAllocateNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	a := NewResource(env, "a", 2)
	b := NewResource(env, "b", 1)
	var bytes int64
	for i := 0; i < 12; i++ {
		i := i
		env.Spawn("looper", func(p *Proc) {
			c := chain{a: a, b: b, bytes: &bytes, useA: Duration(3 + i), holdB: 2, secondA: 1}
			if i >= 8 {
				// Continued, with an await on a signal a callback fires.
				c.sig = NewSignal(env)
				c.fire, c.sigAt = c.sig.Fire, Duration(4+i%3)
				var cc chainCont
				for {
					c.continued(p, &cc)
				}
			}
			for {
				c.scripted(p)
			}
		})
	}
	horizon := Time(0)
	step := func() {
		horizon += Time(100 * Nanosecond)
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // rings and step buffers reach their steady size
	before := env.Executed()
	if n := testing.AllocsPerRun(5, step); n != 0 {
		t.Errorf("%v allocations per 100ns of scripts, want 0", n)
	}
	if env.Executed() == before {
		t.Fatal("no events ran while counting allocations")
	}
}

// BenchmarkKernelUseContended measures Resource.Use under contention: eight
// processes share two slots, so most acquires queue and every hold is a
// timer wake. One Use is one op, two to three events and one resume.
func BenchmarkKernelUseContended(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	r := NewResource(env, "r", 2)
	const procs = 8
	steps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < steps; j++ {
				r.Use(p, Duration(10+i))
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
	b.ReportMetric(float64(env.Switches())/float64(b.N), "resumes/op")
}

// BenchmarkKernelTransfer measures the device shape every Figure 2 box
// uses: acquire a channel, hold it for the serialization time, release,
// then a pipelined latency. Four processes share one channel.
func BenchmarkKernelTransfer(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	ch := NewResource(env, "chan", 1)
	var bytes int64
	const procs = 4
	steps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < steps; j++ {
				sc := p.Script()
				sc.Add(&bytes, 4096)
				sc.Acquire(ch)
				sc.Wait(40 * Nanosecond)
				sc.Release(ch)
				sc.Wait(400 * Nanosecond)
				sc.Run()
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
	b.ReportMetric(float64(env.Switches())/float64(b.N), "resumes/op")
}
