package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The storm is the parallel kernel's reference program: nShards logical
// shards, each with its own procs, resource, queue and pre-split random
// stream, exchanging cross-shard callbacks through CrossAt. It is built so
// no two shards ever produce events at the same timestamp (local events
// land on multiples of quantum, arrivals from shard s land at s*8+3 mod
// quantum), which makes the serial projection argument exact: running the
// whole program on one shard and running it sharded must produce identical
// per-logical-shard traces.
const (
	stormQuantum   = 1000 // ps; all local activity aligns to this
	stormLookahead = Duration(stormQuantum)
)

type stormRec struct {
	at    Time
	kind  uint8 // 0 local step, 1 resource release, 2 cross arrival, 3 dequeue
	shard uint8
	proc  uint8
	val   uint64
}

// runStorm executes the storm and returns a digest of the per-logical-shard
// traces. place maps a logical shard to a physical shard: identity for the
// sharded run, all-zeros for the serial reference.
func runStorm(t *testing.T, env *Env, nShards, nProcs, nSteps int, place func(int) int) string {
	t.Helper()
	return runStormUsing(t, env, nShards, nProcs, nSteps, place,
		func(_ int, r *Resource, p *Proc, d Duration) { r.Use(p, d) })
}

// runStormUsing is runStorm with the resource step supplied by the caller
// (s is the logical shard), so that the script tests can run the same storm
// with that step written by hand and written as a script.
func runStormUsing(t *testing.T, env *Env, nShards, nProcs, nSteps int, place func(int) int,
	use func(s int, r *Resource, p *Proc, d Duration)) string {
	t.Helper()
	traces := make([][]stormRec, nShards)
	ress := make([]*Resource, nShards)
	queues := make([]*Queue[uint64], nShards)
	rands := NewRand(7).SplitN(nShards)
	for s := 0; s < nShards; s++ {
		ress[s] = NewResource(env, fmt.Sprintf("res%d", s), 2).OnShard(place(s))
		queues[s] = NewQueue[uint64](env, fmt.Sprintf("q%d", s), 0).OnShard(place(s))
	}
	for s := 0; s < nShards; s++ {
		s := s
		for k := 0; k < nProcs; k++ {
			k := k
			r := rands[s].Split()
			env.SpawnOn(place(s), fmt.Sprintf("storm%d.%d", s, k), func(p *Proc) {
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
					if i%4 == 3 && nShards > 1 {
						dst := (s + 1) % nShards
						at := p.Now().Add(stormLookahead + Duration(s*8+3))
						val := draw ^ uint64(i)
						p.CrossAt(place(dst), at, func() {
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

// stormDigest hashes per-logical-shard traces in shard order.
func stormDigest(traces [][]stormRec) string {
	h := sha256.New()
	var buf [8]byte
	for _, trace := range traces {
		for _, rec := range trace {
			binary.LittleEndian.PutUint64(buf[:], uint64(rec.at))
			h.Write(buf[:])
			h.Write([]byte{rec.kind, rec.shard, rec.proc})
			binary.LittleEndian.PutUint64(buf[:], rec.val)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestParallelStormMatchesSerial pins the tentpole contract at the kernel
// level: the sharded windowed execution reproduces the serial kernel's
// per-shard event orders bit for bit.
func TestParallelStormMatchesSerial(t *testing.T) {
	for _, nShards := range []int{2, 4, 8} {
		serialEnv := NewEnv()
		serial := runStorm(t, serialEnv, nShards, 6, 40, func(int) int { return 0 })
		serialEnv.Close()

		parEnv := NewEnv()
		parEnv.EnableParallel(nShards, stormLookahead)
		if got := parEnv.NumShards(); got != nShards {
			t.Fatalf("NumShards = %d, want %d", got, nShards)
		}
		par := runStorm(t, parEnv, nShards, 6, 40, func(i int) int { return i })
		if par != serial {
			t.Errorf("%d shards: parallel storm diverged from serial:\n got  %s\n want %s", nShards, par, serial)
		}
		if parEnv.Executed() == 0 {
			t.Errorf("%d shards: no events executed", nShards)
		}
		for i, s := range parEnv.shs {
			if s.executed == 0 {
				t.Errorf("%d shards: shard %d executed nothing — windows never reached it", nShards, i)
			}
		}
		parEnv.Close()
	}
}

// The kernel golden: the storm at one fixed shape, pinned on the commit
// before the coroutine kernel so that a kernel change is refereed against
// constants in milliseconds, without an engine run. The digest covers every
// per-shard trace record (time, kind, process, random draw); Executed pins
// the event count, fast-path advances included.
const (
	stormGoldenDigest   = "d0a24b4ccd7d694ddb0720fd2c449a5dbbf4b5175f88f3b73d3eaebe55f9af84"
	stormGoldenExecuted = 4480
)

// kernelModes are the three ways one four-shard program runs: the serial
// kernel with every logical shard placed on shard 0, four shards with
// windows inline on the driver, four shards with one host goroutine each.
var kernelModes = []struct {
	name  string
	setup func(*Env)
	place func(int) int
}{
	{"serial", func(*Env) {}, func(int) int { return 0 }},
	{"inline", func(e *Env) { e.Shape(4, stormLookahead) }, func(i int) int { return i }},
	{"concurrent", func(e *Env) { e.EnableParallel(4, stormLookahead) }, func(i int) int { return i }},
}

func TestKernelGolden(t *testing.T) {
	for _, mode := range kernelModes {
		env := NewEnv()
		mode.setup(env)
		got := runStorm(t, env, 4, 6, 60, mode.place)
		if got != stormGoldenDigest {
			t.Errorf("%s: storm digest %s, want %s", mode.name, got, stormGoldenDigest)
		}
		if n := env.Executed(); n != stormGoldenExecuted {
			t.Errorf("%s: Executed = %d, want %d", mode.name, n, stormGoldenExecuted)
		}
		env.Close()
	}
}

// TestParallelStormDeterministicAcrossGOMAXPROCS pins determinism against
// host scheduling: the same sharded program produces the same digest
// whether shard windows get one OS thread or many.
func TestParallelStormDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() string {
		env := NewEnv()
		defer env.Close()
		env.EnableParallel(4, stormLookahead)
		return runStorm(t, env, 4, 6, 60, func(i int) int { return i })
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	many := run()
	runtime.GOMAXPROCS(prev)
	if one != many {
		t.Errorf("digest depends on GOMAXPROCS:\n 1: %s\n 8: %s", one, many)
	}
}

// TestCrossAtEnforcesLookahead pins the conservative rule: a cross-shard
// post closer than the lookahead is a protocol violation and must panic
// (surfacing as the run's error), because it could land in the target's
// already-executed past.
func TestCrossAtEnforcesLookahead(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.EnableParallel(2, stormLookahead)
	env.SpawnOn(0, "violator", func(p *Proc) {
		p.Wait(5 * stormQuantum)
		p.CrossAt(1, p.Now().Add(stormLookahead-1), func() {})
	})
	env.SpawnOn(1, "peer", func(p *Proc) { p.Wait(stormQuantum) })
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("lookahead violation not detected: err = %v", err)
	}
}

// TestCloseReapsAllShards is the leak fix's regression test: processes left
// blocked on primitives owned by shards other than shard 0 must still be
// reaped by Close, and the per-shard window workers must exit with them —
// the goroutine count returns to its pre-environment baseline.
func TestCloseReapsAllShards(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	const nShards = 4
	env.EnableParallel(nShards, stormLookahead)
	sigs := make([]*Signal, nShards)
	for s := 0; s < nShards; s++ {
		s := s
		sigs[s] = NewSignal(env).OnShard(s)
		env.SpawnOn(s, fmt.Sprintf("stuck%d", s), func(p *Proc) {
			p.Wait(Duration(stormQuantum * (s + 1)))
			sigs[s].Await(p) // never fired: blocked until Close
		})
	}
	if err := env.RunUntil(Time(100 * stormQuantum)); err != nil {
		t.Fatal(err)
	}
	if live := env.Live(); live != nShards {
		t.Fatalf("expected %d blocked processes before Close, have %d", nShards, live)
	}
	env.Close()
	if live := env.Live(); live != 0 {
		t.Errorf("Close left %d processes live", live)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across Close: baseline %d, now %d", baseline, n)
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

// TestSerialEnvRejectsShardAPIs pins the degenerate cases: a serial
// environment has one shard, zero lookahead, and CrossAt to shard 0 behaves
// as AtOn.
func TestSerialEnvRejectsShardAPIs(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	if env.Parallel() {
		t.Error("fresh env claims to be parallel")
	}
	if n := env.NumShards(); n != 1 {
		t.Errorf("fresh env has %d shards", n)
	}
	if la := env.Lookahead(); la != 0 {
		t.Errorf("serial env has lookahead %v", la)
	}
	ran := false
	env.Spawn("self-cross", func(p *Proc) {
		p.CrossAt(0, p.Now().Add(stormQuantum), func() { ran = true })
		p.Wait(2 * stormQuantum)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("CrossAt to own shard never ran")
	}
	// EnableParallel with <= 1 shard is a no-op, not an error.
	env2 := NewEnv()
	defer env2.Close()
	env2.EnableParallel(1, stormLookahead)
	if env2.Parallel() {
		t.Error("EnableParallel(1) turned the env parallel")
	}
}
