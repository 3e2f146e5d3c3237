package sim

import (
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{400 * Picosecond, "400ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Microsecond, "2.000us"},
		{5 * Millisecond, "5.000ms"},
		{3 * Second, "3.000s"},
		{-2 * Microsecond, "-2.000us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d", d)
	}
}

func TestPerSecond(t *testing.T) {
	if got := PerSecond(1000, Second); got != 1000 {
		t.Errorf("PerSecond(1000, 1s) = %v", got)
	}
	if got := PerSecond(10, 0); got != 0 {
		t.Errorf("PerSecond over empty span = %v, want 0", got)
	}
	if got := PerSecond(500, 500*Millisecond); got != 1000 {
		t.Errorf("PerSecond(500, 0.5s) = %v", got)
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Spawn("w", func(p *Proc) {
		p.Wait(5 * Microsecond)
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", at)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			env.Spawn("p", func(p *Proc) {
				p.Wait(Duration(10-i) * Nanosecond)
				order = append(order, i)
				p.Wait(Nanosecond) // same wake time for several procs: seq breaks ties
				order = append(order, i+100)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("runs incomplete: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
	// Earliest deadline first: proc 9 waits 1ns, so it runs first.
	if a[0] != 9 {
		t.Fatalf("expected proc 9 first, got %v", a[:3])
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Wait(Nanosecond)
			order = append(order, i)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestAtCallback(t *testing.T) {
	env := NewEnv()
	var fired []Time
	env.At(3*Time(Nanosecond), func() { fired = append(fired, env.Now()) })
	env.At(Time(Nanosecond), func() { fired = append(fired, env.Now()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(Nanosecond) || fired[1] != 3*Time(Nanosecond) {
		t.Fatalf("callbacks fired at %v", fired)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	count := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(Microsecond)
			count++
		}
	})
	if err := env.RunUntil(Time(10 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("ticks within horizon = %d, want 10", count)
	}
	if env.Now() != Time(10*Microsecond) {
		t.Fatalf("clock at %v", env.Now())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	env := NewEnv()
	env.Spawn("boom", func(p *Proc) {
		p.Wait(Nanosecond)
		panic("kaboom")
	})
	err := env.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "latch", 1)
	holders := 0
	maxHolders := 0
	for i := 0; i < 4; i++ {
		env.Spawn("u", func(p *Proc) {
			acquire(res, p)
			holders++
			if holders > maxHolders {
				maxHolders = holders
			}
			p.Wait(10 * Nanosecond)
			holders--
			res.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxHolders != 1 {
		t.Fatalf("capacity-1 resource held by %d at once", maxHolders)
	}
	if env.Now() != Time(40*Nanosecond) {
		t.Fatalf("serialized holds should end at 40ns, got %v", env.Now())
	}
}

func TestResourceCapacityAndUtilization(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "cores", 2)
	for i := 0; i < 4; i++ {
		env.Spawn("u", func(p *Proc) {
			res.Use(p, 10*Nanosecond)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs × 10ns on 2 slots = 20ns makespan.
	if env.Now() != Time(20*Nanosecond) {
		t.Fatalf("makespan %v, want 20ns", env.Now())
	}
	if got := res.BusyTime(); got != 40*Nanosecond {
		t.Fatalf("busy time %v, want 40ns", got)
	}
	if u := res.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization %v, want ~1.0", u)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Spawn("u", func(p *Proc) {
			p.Wait(Duration(i) * Nanosecond) // arrive in index order
			acquire(res, p)
			order = append(order, i)
			p.Wait(100 * Nanosecond)
			res.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var got []bool
	env.Spawn("a", func(p *Proc) {
		if !tryAcquire(res) {
			t.Error("first TryAcquire failed")
		}
		got = append(got, tryAcquire(res)) // should fail: full
		res.Release()
		got = append(got, tryAcquire(res)) // should succeed
		res.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("TryAcquire sequence = %v, want [false true]", got)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.Spawn("bad", func(p *Proc) { res.Release() })
	if err := env.Run(); err == nil {
		t.Fatal("expected panic error for releasing idle resource")
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	var got []int
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed early")
				return
			}
			got = append(got, v)
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(Microsecond)
			q.Put(p, i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueBoundedBlocksPutter(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 1)
	var putDone Time
	env.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2) // blocks until consumer takes item 1
		putDone = p.Now()
	})
	env.Spawn("consumer", func(p *Proc) {
		p.Wait(5 * Microsecond)
		if v, ok := q.Get(p); !ok || v != 1 {
			t.Errorf("got %v, %v", v, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != Time(5*Microsecond) {
		t.Fatalf("second Put completed at %v, want 5us", putDone)
	}
}

func TestQueueCloseReleasesGetters(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	drained := 0
	closedSeen := 0
	for i := 0; i < 3; i++ {
		env.Spawn("consumer", func(p *Proc) {
			for {
				_, ok := q.Get(p)
				if !ok {
					closedSeen++
					return
				}
				drained++
			}
		})
	}
	env.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		p.Wait(Microsecond)
		q.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != 2 || closedSeen != 3 {
		t.Fatalf("drained=%d closedSeen=%d", drained, closedSeen)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes leaked", env.Live())
	}
}

func TestQueueStats(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	env.Spawn("p", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		p.Wait(10 * Nanosecond)
		q.TryGet()
		q.TryGet()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Puts() != 2 {
		t.Fatalf("puts=%d", q.Puts())
	}
}

func TestSignalAwaitBeforeAndAfterFire(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	var got []Time
	env.Spawn("early", func(p *Proc) {
		s.Await(p)
		got = append(got, p.Now())
	})
	env.Spawn("firer", func(p *Proc) {
		p.Wait(Microsecond)
		s.Fire()
	})
	env.Spawn("late", func(p *Proc) {
		p.Wait(2 * Microsecond)
		s.Await(p)
		got = append(got, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != Time(Microsecond) || got[1] != Time(2*Microsecond) {
		t.Fatalf("got %v", got)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	env.Spawn("p", func(p *Proc) {
		s.Fire()
		s.Fire()
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected double-fire panic error")
	}
}

// signalRound parks n waiters on sig at one-microsecond intervals, fires it
// after the last has arrived and reports the order the waiters woke in.
func signalRound(env *Env, sig *Signal, n int, order *[]int) {
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("waiter", func(p *Proc) {
			p.Wait(Duration(i) * Microsecond)
			sig.Await(p)
			*order = append(*order, i)
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Wait(Duration(n) * Microsecond)
		sig.Fire()
	})
}

// TestSignalWakesInArrivalOrder fires a signal with 1, 2 and 5 waiters — the
// inline first waiter alone, with one spilled, with several — and checks
// they wake in arrival order for the event count a signal that kept every
// waiter in one slice cost (taken on the commit before the inline waiter).
// A second round on the same signal after Reset must cost and order the
// same.
func TestSignalWakesInArrivalOrder(t *testing.T) {
	for _, c := range []struct {
		waiters  int
		executed uint64
	}{{1, 5}, {2, 8}, {5, 17}} {
		env := NewEnv()
		sig := NewSignal(env)
		for round := 0; round < 2; round++ {
			var order []int
			before := env.Executed()
			signalRound(env, sig, c.waiters, &order)
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if got := env.Executed() - before; got != c.executed {
				t.Errorf("%d waiters, round %d: %d events, want %d", c.waiters, round, got, c.executed)
			}
			for i, w := range order {
				if w != i {
					t.Fatalf("%d waiters, round %d: woke in order %v", c.waiters, round, order)
				}
			}
			if len(order) != c.waiters {
				t.Fatalf("%d waiters, round %d: only %v woke", c.waiters, round, order)
			}
			sig.Reset()
		}
	}
}

// TestSignalResetPanicsWhileInUse: Reset is for a signal whose completion
// everybody has seen. An unfired signal may have a waiter or an OnFire
// callback pending (or get one later), and a fired one may still owe a woken
// waiter its return from Await.
func TestSignalResetPanicsWhileInUse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Reset did not panic", name)
			}
		}()
		fn()
	}
	env := NewEnv()
	mustPanic("unfired", func() { NewSignal(env).Reset() })

	hooked := NewSignal(env)
	hooked.OnFire(func() {})
	mustPanic("OnFire pending", hooked.Reset)

	awaited, woken := NewSignal(env), NewSignal(env)
	env.Spawn("waiter", func(p *Proc) { awaited.Await(p) })
	env.Spawn("sleeper", func(p *Proc) { woken.Await(p) })
	env.Spawn("owner", func(p *Proc) {
		p.Wait(Microsecond)
		mustPanic("waiter parked", awaited.Reset)
		woken.Fire()
		// The sleeper's wake is scheduled, not yet run: it has not seen the
		// completion.
		mustPanic("waiter woken but not resumed", woken.Reset)
		p.Wait(0)
		woken.Reset()
	})
	if err := env.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	env.Close()
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRand(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d/100", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	if err := quick.Check(func(span uint16) bool {
		n := int(span%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range out of bounds: %d", v)
		}
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of bounds: %v", f)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(42)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Fatalf("bucket %d has %d of %d draws", b, c, n)
		}
	}
}

func TestRandPermAndShuffle(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(9)
	const n = 200000
	var sum Duration
	for i := 0; i < n; i++ {
		sum += r.Exp(10 * Microsecond)
	}
	mean := float64(sum) / n
	want := float64(10 * Microsecond)
	if mean < want*0.97 || mean > want*1.03 {
		t.Fatalf("Exp mean %v, want ~%v", Duration(mean), Duration(want))
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(5)
	s := r.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == s.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split streams collided %d times", matches)
	}
}

// TestOverlappingWaitsThroughResource checks the core pattern used by the
// engines: CPU work holds a core, device waits do not, so device latency
// overlaps across processes.
func TestOverlappingWaitsThroughResource(t *testing.T) {
	env := NewEnv()
	core := NewResource(env, "core", 1)
	done := 0
	for i := 0; i < 4; i++ {
		env.Spawn("txn", func(p *Proc) {
			core.Use(p, 10*Nanosecond) // CPU burst
			p.Wait(Microsecond)        // async device wait, core free
			core.Use(p, 10*Nanosecond) // completion processing
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("done=%d", done)
	}
	// If the device waits serialized on the core, makespan would exceed 4us.
	// Overlapped: ~1us + 8×10ns.
	if env.Now() > Time(2*Microsecond) {
		t.Fatalf("device waits failed to overlap: makespan %v", env.Now())
	}
}

func TestQueuePutFrontJumpsBacklog(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	var got []int
	env.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.PutFront(99)
		for i := 0; i < 3; i++ {
			v, _ := q.Get(p)
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 99 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v, want [99 1 2]", got)
	}
}

func TestQueuePutFrontWakesGetter(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env, "q", 0)
	var got string
	env.Spawn("consumer", func(p *Proc) {
		got, _ = q.Get(p)
	})
	env.Spawn("producer", func(p *Proc) {
		p.Wait(Microsecond)
		q.PutFront("hi")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hi" {
		t.Fatalf("got %v", got)
	}
}
