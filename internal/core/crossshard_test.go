package core

import (
	"fmt"
	"testing"

	"bionicdb/internal/dora"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

// modScheme routes uint64 keys by value mod n, so tests can pick the
// partition — and with it the socket — a key lands on.
func modScheme(n int) PartitionScheme {
	return PartitionScheme{
		Partitions: n,
		Route:      func(table uint16, key []byte) int { return int(storage.DecodeUint64(key) % uint64(n)) },
		Entity:     func(table uint16, key []byte) dora.Entity { return dora.KeyEntity(key) },
	}
}

// newTwoSocketDORA builds a DORA engine on a 2-socket machine with one
// partition per core: partitions 0-7 on socket 0, 8-15 on socket 1.
func newTwoSocketDORA(env *sim.Env) *DORAEngine {
	return NewDORA(env, platform.HC2Scaled(2), kvTables(), modScheme(16))
}

// driveTerminal runs fn as a terminal process on core 0 (socket 0),
// closes the engine when fn returns (stopping its background daemons),
// and drains the simulation.
func driveTerminal(t *testing.T, e *DORAEngine, fn func(term *Terminal)) {
	t.Helper()
	e.pl.Env.Spawn("terminal", func(p *sim.Proc) {
		fn(&Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)})
		e.Close()
	})
	if err := e.pl.Env.Run(); err != nil {
		t.Fatal(err)
	}
}

func seedKeys(e Engine) {
	for i := 0; i < 16; i++ {
		e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("init-%d", i)))
	}
}

func updateTwo(a, b uint64, commit bool) TxnLogic {
	ka, kb := storage.Uint64Key(a), storage.Uint64Key(b)
	return func(tx Tx) bool {
		ok := tx.Phase(
			Action{Table: 1, Key: ka, Body: func(c AccessCtx) bool { return c.Update(1, ka, []byte("new-a")) }},
			Action{Table: 1, Key: kb, Body: func(c AccessCtx) bool { return c.Update(1, kb, []byte("new-b")) }},
		)
		return ok && commit
	}
}

// TestCrossShardCommit: a transaction spanning partitions on two sockets
// runs the decision round; a socket-local transaction pays no interconnect
// messages at all.
func TestCrossShardCommit(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	e := newTwoSocketDORA(env)
	seedKeys(e)

	driveTerminal(t, e, func(term *Terminal) {
		// Keys 1 and 9: partitions 1 (socket 0) and 9 (socket 1).
		if !e.Submit(term, updateTwo(1, 9, true)) {
			t.Error("cross-shard transaction did not commit")
		}
		if got := e.Counters().Get("crossshard.commits"); got != 1 {
			t.Errorf("crossshard.commits = %d, want 1", got)
		}
		msgs := e.pl.IC.Messages()
		if msgs == 0 {
			t.Error("cross-shard transaction sent no interconnect messages")
		}

		// Keys 1 and 2 both live on the coordinator's socket: no decision
		// round, no messages.
		if !e.Submit(term, updateTwo(1, 2, true)) {
			t.Error("local transaction did not commit")
		}
		if got := e.Counters().Get("crossshard.commits"); got != 1 {
			t.Errorf("local transaction bumped crossshard.commits to %d", got)
		}
		if got := e.pl.IC.Messages(); got != msgs {
			t.Errorf("socket-local transaction sent %d interconnect messages", got-msgs)
		}
	})
}

// TestCrossShardAbort: a user abort spanning sockets rolls back on both
// shards (undo crosses the interconnect) and broadcasts the abort
// decision.
func TestCrossShardAbort(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	e := newTwoSocketDORA(env)
	seedKeys(e)

	driveTerminal(t, e, func(term *Terminal) {
		if e.Submit(term, updateTwo(1, 9, false)) {
			t.Error("aborting transaction reported commit")
		}
		if got := e.Counters().Get("crossshard.aborts"); got != 1 {
			t.Errorf("crossshard.aborts = %d, want 1", got)
		}
		if got := e.Counters().Get("aborts.user"); got != 1 {
			t.Errorf("aborts.user = %d, want 1", got)
		}
	})
	for _, k := range []uint64{1, 9} {
		want := fmt.Sprintf("init-%d", k)
		if v, ok := e.ReadRaw(1, storage.Uint64Key(k)); !ok || string(v) != want {
			t.Errorf("key %d after cross-shard abort = %q, want %q", k, v, want)
		}
	}
}

// conflictWorkload hammers eight hot entities with two-key transactions:
// on a multi-socket engine most transactions are cross-shard and many
// defer or deadlock, exercising the refused/retry/rollback paths.
type conflictWorkload struct{}

func (conflictWorkload) Name() string                 { return "conflict" }
func (conflictWorkload) Tables() []TableDef           { return kvTables() }
func (conflictWorkload) Scheme(n int) PartitionScheme { return modScheme(n) }
func (conflictWorkload) Populate(load func(t uint16, k, v []byte), r *sim.Rand) {
	for i := 0; i < 16; i++ {
		load(1, storage.Uint64Key(uint64(i)), []byte("x"))
	}
}
func (conflictWorkload) NextTxn(r *sim.Rand) (string, TxnLogic) {
	a := uint64(r.Intn(8))
	b := uint64(r.Intn(8))
	for b == a {
		b = uint64(r.Intn(8))
	}
	return "clash", updateTwo(a, b, true)
}

// TestMultiSocketConflictDeterminism runs a conflict-heavy 4-socket
// measurement twice and requires bit-identical results: the cross-shard
// paths (defers, deadlock refusals, decision rounds, interconnect
// queueing) must be a pure function of the seed.
func TestMultiSocketConflictDeterminism(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(env *sim.Env) Engine
	}{
		{"dora", func(env *sim.Env) Engine {
			return NewDORA(env, platform.HC2Scaled(4), kvTables(), modScheme(32))
		}},
		{"bionic", func(env *sim.Env) Engine {
			return NewBionic(env, platform.HC2Scaled(4), kvTables(), modScheme(32), AllOffloads(), 8)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			cfg := RunConfig{Terminals: 24, Warmup: sim.Duration(1) * sim.Millisecond,
				Measure: sim.Duration(2) * sim.Millisecond, Seed: 11}
			r1, err := Run(cfg, conflictWorkload{}, mk.make)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg, conflictWorkload{}, mk.make)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Commits == 0 {
				t.Fatal("conflict workload committed nothing")
			}
			if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts {
				t.Errorf("commits/aborts diverge across identical runs: %d/%d vs %d/%d",
					r1.Commits, r1.Aborts, r2.Commits, r2.Aborts)
			}
			if r1.TPS != r2.TPS || r1.JoulesPerTxn != r2.JoulesPerTxn {
				t.Errorf("tps/energy diverge: %v/%v vs %v/%v", r1.TPS, r1.JoulesPerTxn, r2.TPS, r2.JoulesPerTxn)
			}
			if r1.BD != r2.BD {
				t.Error("component breakdown diverges across identical runs")
			}
			if r1.Latency.Percentile(95) != r2.Latency.Percentile(95) {
				t.Error("latency distribution diverges across identical runs")
			}
		})
	}
}

// TestCrossShardDeadlockRefusal forces a waits-for cycle across sockets
// and checks the engine resolves it by refusing one action and retrying —
// no simulated hang, and the final state reflects both transactions.
func TestCrossShardDeadlockRefusal(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	e := newTwoSocketDORA(env)
	seedKeys(e)

	// Two terminals on different sockets lock the same two entities in
	// opposite orders across two phases, the classic cycle.
	locked := func(first, second uint64) TxnLogic {
		ka, kb := storage.Uint64Key(first), storage.Uint64Key(second)
		return func(tx Tx) bool {
			if !tx.Phase(Action{Table: 1, Key: ka, Body: func(c AccessCtx) bool { return c.Update(1, ka, []byte("p1")) }}) {
				return false
			}
			return tx.Phase(Action{Table: 1, Key: kb, Body: func(c AccessCtx) bool { return c.Update(1, kb, []byte("p2")) }})
		}
	}
	results := make([]bool, 2)
	finished := 0
	done := func() {
		// Simulated processes run one at a time, so this is race-free;
		// the last terminal to finish stops the engine's daemons.
		finished++
		if finished == 2 {
			e.Close()
		}
	}
	env.Spawn("t0", func(p *sim.Proc) {
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		results[0] = e.Submit(term, locked(1, 9))
		done()
	})
	env.Spawn("t1", func(p *sim.Proc) {
		term := &Terminal{ID: 1, P: p, Core: e.Platform().Cores[8], R: sim.NewRand(2)}
		results[1] = e.Submit(term, locked(9, 1))
		done()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !results[0] || !results[1] {
		t.Fatalf("both transactions should eventually commit (deadlock retry), got %v", results)
	}
	for _, k := range []uint64{1, 9} {
		if v, ok := e.ReadRaw(1, storage.Uint64Key(k)); !ok || (string(v) != "p1" && string(v) != "p2") {
			t.Errorf("key %d = %q, want p1 or p2", k, v)
		}
	}
}
