package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// The storm is the kernel's reference program: nGroups groups of processes,
// each group with its own resource, queue and split random stream, posting
// callbacks to the next group. No two groups ever produce events at the same
// timestamp (local events land on multiples of quantum, posts from group s
// at s*8+3 past one), so each group's trace is a property of the program,
// not of tie-breaking between groups.
const (
	stormQuantum = 1000 // ps; all local activity aligns to this
	stormPost    = Duration(stormQuantum)
)

type stormRec struct {
	at    Time
	kind  uint8 // 0 local step, 1 resource release, 2 posted callback, 3 dequeue
	group uint8
	proc  uint8
	val   uint64
}

// runStorm executes the storm and returns a digest of the per-group traces.
func runStorm(t *testing.T, env *Env, nGroups, nProcs, nSteps int) string {
	t.Helper()
	return runStormUsing(t, env, nGroups, nProcs, nSteps,
		func(_ int, r *Resource, p *Proc, d Duration) { r.Use(p, d) })
}

// runStormUsing is runStorm with the resource step supplied by the caller
// (s is the group), so that the script tests can run the same storm with
// that step written by hand and written as a script.
func runStormUsing(t *testing.T, env *Env, nGroups, nProcs, nSteps int,
	use func(s int, r *Resource, p *Proc, d Duration)) string {
	t.Helper()
	traces := make([][]stormRec, nGroups)
	ress := make([]*Resource, nGroups)
	queues := make([]*Queue[uint64], nGroups)
	rands := make([]*Rand, nGroups)
	root := NewRand(7)
	for s := range rands {
		rands[s] = root.Split()
	}
	for s := 0; s < nGroups; s++ {
		ress[s] = NewResource(env, fmt.Sprintf("res%d", s), 2)
		queues[s] = NewQueue[uint64](env, fmt.Sprintf("q%d", s), 0)
	}
	for s := 0; s < nGroups; s++ {
		s := s
		for k := 0; k < nProcs; k++ {
			k := k
			r := rands[s].Split()
			env.Spawn(fmt.Sprintf("storm%d.%d", s, k), func(p *Proc) {
				for i := 0; i < nSteps; i++ {
					p.Wait(Duration(stormQuantum * (1 + (k+i)%5)))
					draw := r.Uint64()
					traces[s] = append(traces[s], stormRec{p.Now(), 0, uint8(s), uint8(k), draw})
					use(s, ress[s], p, Duration(stormQuantum*(1+k%3)))
					traces[s] = append(traces[s], stormRec{p.Now(), 1, uint8(s), uint8(k), 0})
					queues[s].Put(p, draw)
					if v, ok := queues[s].TryGet(); ok {
						traces[s] = append(traces[s], stormRec{p.Now(), 3, uint8(s), uint8(k), v})
					}
					if i%4 == 3 && nGroups > 1 {
						dst := (s + 1) % nGroups
						at := p.Now().Add(stormPost + Duration(s*8+3))
						val := draw ^ uint64(i)
						env.At(at, func() {
							traces[dst] = append(traces[dst], stormRec{at, 2, uint8(s), uint8(k), val})
						})
					}
				}
			})
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("storm failed: %v", err)
	}
	return stormDigest(traces)
}

// stormDigest hashes per-group traces in group order.
func stormDigest(traces [][]stormRec) string {
	h := sha256.New()
	var buf [8]byte
	for _, trace := range traces {
		for _, rec := range trace {
			binary.LittleEndian.PutUint64(buf[:], uint64(rec.at))
			h.Write(buf[:])
			h.Write([]byte{rec.kind, rec.group, rec.proc})
			binary.LittleEndian.PutUint64(buf[:], rec.val)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The kernel golden: the storm at one fixed shape, pinned on the commit
// before the coroutine kernel so that a kernel change is refereed against
// constants in milliseconds, without an engine run. The digest covers every
// per-group trace record (time, kind, process, random draw); Executed pins
// the event count, fast-path advances included.
const (
	stormGoldenDigest   = "d0a24b4ccd7d694ddb0720fd2c449a5dbbf4b5175f88f3b73d3eaebe55f9af84"
	stormGoldenExecuted = 4480
)

func TestKernelGolden(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	if got := runStorm(t, env, 4, 6, 60); got != stormGoldenDigest {
		t.Errorf("storm digest %s, want %s", got, stormGoldenDigest)
	}
	if n := env.Executed(); n != stormGoldenExecuted {
		t.Errorf("Executed = %d, want %d", n, stormGoldenExecuted)
	}
}

// TestCloseReapsUnstartedProcess covers the process Close cannot unwind: one
// that was spawned and never dispatched has run none of its body, so no
// deferred exit drops Live for it. Close must account for it itself, and its
// coroutine's goroutine must be gone when Close returns.
func TestCloseReapsUnstartedProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	ran := false
	env.Spawn("never", func(p *Proc) { ran = true })
	if live := env.Live(); live != 1 {
		t.Fatalf("Live = %d after Spawn, want 1", live)
	}
	env.Close()
	if ran {
		t.Error("Close ran the body of a process that was never dispatched")
	}
	if live := env.Live(); live != 0 {
		t.Errorf("Close left Live = %d", live)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across Close: baseline %d, now %d", baseline, n)
	}
}

// TestQueueAccountingWithPutFront pins the accounting contract across both
// enqueue paths: Puts counts every enqueue, and a PutFront item comes out
// first.
func TestQueueAccountingWithPutFront(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	env.Spawn("p", func(p *Proc) {
		q.Put(p, 1)
		q.PutFront(2) // at the head
		p.Wait(10 * Nanosecond)
		q.Put(p, 3)
		p.Wait(20 * Nanosecond)
		if v, _ := q.TryGet(); v != 2 {
			t.Errorf("head = %v, want the PutFront item 2", v)
		}
		q.TryGet()
		q.TryGet()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Puts() != 3 {
		t.Errorf("Puts = %d, want 3 (PutFront must count)", q.Puts())
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after drain", q.Len())
	}
}

// TestQueuePutFrontAheadOfWaitingItems checks that a priority item passes
// every item already waiting in the queue, including across ring growth.
func TestQueuePutFrontAheadOfWaitingItems(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	var got []int
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 20; i++ { // force several ring growths
			q.Put(p, i)
		}
		q.PutFront(100)
		q.PutFront(101) // most recent priority item first
		for {
			v, ok := q.TryGet()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 22 || got[0] != 101 || got[1] != 100 {
		t.Fatalf("priority items did not jump the backlog: %v", got)
	}
	for i := 0; i < 20; i++ {
		if got[i+2] != i {
			t.Fatalf("backlog order disturbed: %v", got)
		}
	}
}

// TestQueueRingWraparound cycles a bounded queue far past its ring capacity
// in both FIFO and priority directions, checking order survives wraps.
func TestQueueRingWraparound(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	env.Spawn("p", func(p *Proc) {
		next := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.Put(p, round*10+i)
			}
			for i := 0; i < 3; i++ {
				v, ok := q.TryGet()
				if !ok || v != round*10+i {
					t.Errorf("round %d: got %v ok=%v, want %d", round, v, ok, round*10+i)
					return
				}
				next++
			}
		}
		if q.Len() != 0 {
			t.Errorf("queue not empty after cycles: %d", q.Len())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReapsParkedProcesses is the goroutine-leak regression test: a
// process panic ends the run while other processes are still parked on a
// queue nobody will ever close; Env.Close must unwind and reap them all.
func TestCloseReapsParkedProcesses(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	for i := 0; i < 3; i++ {
		env.Spawn("blocked", func(p *Proc) {
			q.Get(p) // parks forever: no producer, never closed
		})
	}
	env.Spawn("boom", func(p *Proc) {
		p.Wait(Nanosecond)
		panic("kaboom")
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected the process panic as an error")
	}
	if env.Live() == 0 {
		t.Fatal("expected parked processes to be live before Close")
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Close left %d processes parked", env.Live())
	}
	env.Close() // idempotent
	if err := env.RunUntil(Time(Second)); err == nil {
		t.Fatal("closed environment must refuse to run")
	}
}

// TestCloseReapsCleanRunLeftovers checks Close also reaps processes that a
// clean (error-free) run left blocked on kernel primitives.
func TestCloseReapsCleanRunLeftovers(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	env.Spawn("holder", func(p *Proc) {
		acquire(res, p) // acquired and never released
	})
	env.Spawn("waiter", func(p *Proc) {
		p.Wait(Nanosecond)
		acquire(res, p) // parks forever
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 1 {
		t.Fatalf("Live = %d, want 1 parked waiter", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Close left %d processes", env.Live())
	}
}

// TestWaitFastPathRespectsCallbacks checks the direct-advance fast path
// never skips over a scheduled callback: the callback must observe its own
// timestamp, strictly before the waiting process resumes.
func TestWaitFastPathRespectsCallbacks(t *testing.T) {
	env := NewEnv()
	var cbAt, wakeAt Time
	env.At(3*Time(Nanosecond), func() { cbAt = env.Now() })
	env.Spawn("w", func(p *Proc) {
		p.Wait(5 * Nanosecond) // must take the slow path: callback intervenes
		wakeAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if cbAt != 3*Time(Nanosecond) {
		t.Errorf("callback ran at %v, want 3ns", cbAt)
	}
	if wakeAt != 5*Time(Nanosecond) {
		t.Errorf("process resumed at %v, want 5ns", wakeAt)
	}
}

// TestWaitFastPathStopsAtHorizon checks the fast path cannot run the clock
// past a RunUntil horizon (the slow path parks the process instead).
func TestWaitFastPathStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(Nanosecond) // sole runnable: eligible for the fast path
			ticks++
		}
	})
	if err := env.RunUntil(Time(7 * Nanosecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 7 {
		t.Fatalf("ticks = %d, want 7 (fast path overran the horizon)", ticks)
	}
	if env.Now() != Time(7*Nanosecond) {
		t.Fatalf("clock at %v, want 7ns", env.Now())
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d after Run, want 100", ticks)
	}
}

// TestSuspendResume checks the worker-pool primitive: a suspended process
// resumes at the current time, after already-queued same-time events.
func TestSuspendResume(t *testing.T) {
	env := NewEnv()
	var worker *Proc
	var order []string
	idle := false
	env.Spawn("worker", func(p *Proc) {
		worker = p
		for round := 0; round < 2; round++ {
			idle = true
			p.Suspend()
			order = append(order, "work")
		}
	})
	env.Spawn("feeder", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Wait(Microsecond)
			if !idle {
				t.Error("feeder ran before worker went idle")
			}
			idle = false
			order = append(order, "feed")
			p.Env().Resume(worker)
			p.Wait(Microsecond / 2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"feed", "work", "feed", "work"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestExecutedCountsEvents checks the events/sec denominator includes both
// scheduled wakes and fast-path advances.
func TestExecutedCountsEvents(t *testing.T) {
	env := NewEnv()
	env.Spawn("w", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(Nanosecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 spawn wake + 10 waits.
	if got := env.Executed(); got != 11 {
		t.Fatalf("Executed = %d, want 11", got)
	}
}

// BenchmarkKernelEventLoop measures the steady-state event loop: a closed
// set of processes timer-stepping through interleaved waits, the hot path
// under every simulated measurement. Run with -benchmem: the loop must not
// allocate per event (the container/heap kernel paid two boxing
// allocations per event plus waiter-slice churn).
func BenchmarkKernelEventLoop(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	const procs = 16
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				p.Wait(Duration(1 + (i+j)%7))
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
}

// BenchmarkKernelQueuePingPong measures a producer/consumer pair through a
// Queue — the DORA action-queue shape — including a PutFront per round.
func BenchmarkKernelQueuePingPong(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	done := 0
	env.Spawn("consumer", func(p *Proc) {
		for {
			_, ok := q.Get(p)
			if !ok {
				return
			}
			done++
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
			q.PutFront(i)
			p.Wait(Nanosecond)
		}
		q.Close()
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if done != 2*b.N {
		b.Fatalf("done = %d, want %d", done, 2*b.N)
	}
}

// BenchmarkKernelHandoffRing64 measures the terminal pattern: 64 processes
// waking in timer lock-step, so every event is a switch to another process
// and none takes the Wait fast path.
func BenchmarkKernelHandoffRing64(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	const procs = 64
	steps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < steps; j++ {
				p.Wait(Nanosecond)
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
}

// BenchmarkKernelSpawn measures a spawn-and-finish: the parent spawns a
// child that returns at once, then steps its own clock so the child runs
// before the next spawn.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Spawn("child", func(*Proc) {})
			p.Wait(Nanosecond)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
}
