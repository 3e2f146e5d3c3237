package core

import (
	"fmt"
	"testing"

	"bionicdb/internal/lockmgr"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// chainEngine is a conventional engine over one warm table of 4096 rows,
// and the rows' keys.
func chainEngine(env *sim.Env) (*Conventional, [][]byte) {
	e := NewConventional(env, platform.HC2(), []TableDef{{ID: 1, Name: "kv", Order: 32}})
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%06d", i))
		e.Load(1, keys[i], make([]byte, 64))
	}
	e.Warm()
	return e, keys
}

// steadyAllocs runs env for 5 ms, long enough for every latch stripe's
// waiter ring and every task's chain state to be built, then in 100 µs steps
// under testing.AllocsPerRun, and returns the allocations per step.
func steadyAllocs(t *testing.T, env *sim.Env) float64 {
	t.Helper()
	horizon := sim.Time(5 * sim.Millisecond)
	if err := env.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	step := func() {
		horizon += sim.Time(100 * sim.Microsecond)
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	before := env.Executed()
	n := testing.AllocsPerRun(20, step)
	if env.Executed() == before {
		t.Fatal("no events ran while counting allocations")
	}
	return n
}

// TestPageWalkAllocatesNothing checks that the warm page walk (chargeVisits
// with its latches, fixes and unfixes) allocates nothing once each task has
// its walk: eight processes walk to rows of one table on two cores, half of
// them as writers (dirty unfixes at the leaf; the tree itself is left as it
// is, so no slab grows), so latches and cores are contended and the walks
// park mid-chain.
func TestPageWalkAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	e, keys := chainEngine(env)
	visits := 0
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("walker", func(p *sim.Proc) {
			task := e.pl.NewTask(p, e.pl.Cores[i%2], e.bd)
			r := sim.NewRand(uint64(i + 1))
			for {
				k := keys[r.Intn(len(keys))]
				tr := e.traces.Get()
				e.trees[1].Get(k, tr)
				e.chargeVisits(task, tr, i%2 == 1)
				visits += len(tr.Visits)
				e.traces.Put(tr)
				task.Flush()
			}
		})
	}
	if n := steadyAllocs(t, env); n != 0 {
		t.Errorf("%v allocations per 100µs of page walks, want 0", n)
	}
	if visits == 0 {
		t.Fatal("no page was fixed")
	}
}

// TestLockPairAllocatesNothing checks that the conventional engine's lock
// pair (convCtx.lock: the table lock, then the row lock) and the release
// loop behind it allocate nothing in steady state, contended rounds
// included: eight terminals lock two of 64 rows each, in key order, and
// release them.
func TestLockPairAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	e, keys := chainEngine(env)
	waits := 0 // releases that found a request queued
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("locker", func(p *sim.Proc) {
			term := &Terminal{ID: i, P: p, Core: e.pl.Cores[i%2]}
			c := &convCtx{e: e, term: term}
			c.rt = rowTx{rows: e.rowStore, tm: e.tm, task: e.pl.NewTask(p, term.Core, e.bd), tx: &c.tx}
			c.pair.c = c
			r := sim.NewRand(uint64(i + 1))
			for txn := uint64(i + 1); ; txn += 8 {
				c.tx.ID, c.err = txn, nil
				a, b := r.Intn(64), r.Intn(64)
				c.lock(1, keys[min(a, b)], lockmgr.IX, lockmgr.X)
				c.lock(1, keys[max(a, b)], lockmgr.IS, lockmgr.S)
				c.rt.task.Flush()
				p.Wait(200 * sim.Nanosecond)
				if e.lm.CurWaiters() > 0 {
					waits++
				}
				e.lm.ReleaseAll(c.rt.task, txn)
				c.rt.task.Flush()
			}
		})
	}
	if n := steadyAllocs(t, env); n != 0 {
		t.Errorf("%v allocations per 100µs of lock pairs, want 0", n)
	}
	if waits == 0 {
		t.Fatal("no lock request waited")
	}
}
