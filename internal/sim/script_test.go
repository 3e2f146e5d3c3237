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
	r.acquires++
	start := r.env.now
	for r.inUse >= r.capacity {
		r.waiters.push(p)
		p.park()
	}
	r.waited += r.env.now.Sub(start)
	r.stamp()
	r.inUse++
}

// chain is the blocking sequence the equivalence tests run both ways: a
// service time at a, a device-shaped transfer through b (hold, release,
// trailing latency that may be zero) and a second service time at a.
type chain struct {
	a, b          *Resource
	useA, holdB   Duration
	latB, secondA Duration
	bytes         *int64
}

func (c chain) byHand(p *Proc) {
	handAcquire(c.a, p)
	p.Wait(c.useA)
	c.a.Release()
	*c.bytes += 64
	handAcquire(c.b, p)
	p.Wait(c.holdB)
	c.b.Release()
	p.Wait(c.latB)
	handAcquire(c.a, p)
	p.Wait(c.secondA)
	c.a.Release()
}

func (c chain) scripted(p *Proc) {
	sc := p.Script()
	sc.Use(c.a, c.useA)
	sc.Add(c.bytes, 64)
	sc.Acquire(c.b)
	sc.Wait(c.holdB)
	sc.Release(c.b)
	sc.Wait(c.latB)
	sc.Use(c.a, c.secondA)
	sc.Run()
}

// TestScriptStormMatchesByHand runs the storm with its resource step widened
// to a chain over two resources, once with every acquire, wait and release
// made by the process itself and once as a single script, and wants the same
// trace digest, the same event count and the same resource accounting. Fewer
// resumes is the only permitted difference.
func TestScriptStormMatchesByHand(t *testing.T) {
	run := func(scripted bool) (digest string, executed, switches uint64, acct string) {
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
			c := chain{a: r, b: bs[s], useA: d, holdB: stormQuantum, secondA: 2 * stormQuantum, bytes: &bytes[s]}
			if d == stormQuantum {
				c.latB = stormQuantum // the others end the transfer on a zero wait
			}
			if scripted {
				c.scripted(p)
			} else {
				c.byHand(p)
			}
		})
		for _, r := range append(as, bs...) {
			acct += fmt.Sprintf("%s:%d/%d/%d ", r.name, r.Acquires(), r.WaitTime(), r.BusyTime())
		}
		acct += fmt.Sprint(bytes)
		return digest, env.Executed(), env.Switches(), acct
	}
	hd, he, hs, ha := run(false)
	sd, se, ss, sa := run(true)
	if hd != sd {
		t.Errorf("trace digest by hand %s, scripted %s", hd, sd)
	}
	if he != se {
		t.Errorf("Executed by hand %d, scripted %d", he, se)
	}
	if ha != sa {
		t.Errorf("resource accounting differs:\n by hand  %s\n scripted %s", ha, sa)
	}
	if ss >= hs {
		t.Errorf("scripts resumed %d times, by hand %d: nothing was saved", ss, hs)
	}
}

// TestScriptFuzzSeedsMatchByHand interprets FuzzKernel's seed corpus as
// programs of waits, chains, queue traffic and posted callbacks, three
// processes to a group contending for that group's two resources, and wants
// by-hand and scripted runs to agree.
func TestScriptFuzzSeedsMatchByHand(t *testing.T) {
	seeds := [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]byte("queue-order"),
		{2, 2, 2, 3, 3, 3, 4, 4, 0, 0, 1, 1, 4, 4, 4},
		{255, 254, 253, 4, 4, 4, 4, 0, 128, 64, 32, 16, 8, 4, 2, 1},
	}
	const nGroups, perGroup = 4, 3
	run := func(data []byte, scripted bool) (string, uint64) {
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
							if scripted {
								c.scripted(p)
							} else {
								c.byHand(p)
							}
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
		hd, he := run(data, false)
		sd, se := run(data, true)
		if hd != sd || he != se {
			t.Errorf("seed %d: by hand %s / %d events, scripted %s / %d events", i, hd, he, sd, se)
		}
	}
}

// resumesOf runs body as the only process of a fresh environment and
// returns how many times the process was resumed while inside it. setup
// arranges contention and intervening events with TryAcquire and callbacks
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
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("resource left with %d held, %d queued", r.InUse(), r.QueueLen())
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
			r.TryAcquire()
			env.At(ns(10), r.Release)
			env.At(ns(12), noop)
		}, func(p *Proc, r *Resource) { r.Use(p, 5*Nanosecond) }, ns(15)},
		{"uncontended transfer", 1, 2, func(env *Env, r *Resource) {
			env.At(ns(5), noop)
			env.At(ns(12), noop)
		}, transfer, ns(15)},
		{"contended transfer", 1, 3, func(env *Env, r *Resource) {
			r.TryAcquire()
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
	if env.Live() != 2 || r.QueueLen() != 1 {
		t.Fatalf("Live = %d, queue = %d; want both processes parked mid-script", env.Live(), r.QueueLen())
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
// made of nothing but contended scripts allocates nothing.
func TestScriptsAllocateNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	a := NewResource(env, "a", 2)
	b := NewResource(env, "b", 1)
	var bytes int64
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("looper", func(p *Proc) {
			c := chain{a: a, b: b, bytes: &bytes, useA: Duration(3 + i), holdB: 2, secondA: 1}
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
