package dora

import (
	"strings"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// confinedFixture builds a 2-socket sharded-log platform, confines it, and
// homes one window-1 partition on socket 1's kernel shard.
func confinedFixture(t *testing.T) (*sim.Env, *platform.Platform, *Partition) {
	t.Helper()
	env := sim.NewEnv()
	cfg := platform.HC2Scaled(2)
	cfg.LogDevPerSocket = true
	pl := platform.New(env, cfg)
	pl.Confine()
	if !pl.Confined() {
		t.Fatal("platform did not confine")
	}
	pt := NewPartition(pl, NewRegistry(), 0, pl.Sockets[1].Cores[0], DefaultCosts(), 1, &stats.Breakdown{})
	pt.Confine()
	pt.Start()
	return env, pl, pt
}

// TestConfinedPartitionRejectsForeignTouch pins the confinement contract
// from both sides. A shard-0 process that touches the partition's input
// queue directly — the engine structure, not the posted Enqueue edge — must
// die on the kernel's ownership check; the same process going through
// Enqueue (which crosses shards as a posted interconnect message via
// CrossAt) must get its action executed and its vote home.
func TestConfinedPartitionRejectsForeignTouch(t *testing.T) {
	t.Run("direct-touch-panics", func(t *testing.T) {
		env, _, pt := confinedFixture(t)
		defer env.Close()
		env.SpawnOn(0, "intruder", func(p *sim.Proc) {
			pt.in.Put(p, &Action{}) // bypasses the CrossAt edge
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "owned by another shard") {
			t.Fatalf("foreign direct queue touch survived: %v", err)
		}
	})
	t.Run("posted-enqueue-delivers", func(t *testing.T) {
		env, pl, pt := confinedFixture(t)
		defer env.Close()
		ran := false
		env.SpawnOn(0, "coordinator", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Sockets[0].Cores[1], &stats.Breakdown{})
			rvp := NewRVPOn(env, 1, 0)
			pt.Enqueue(task, &Action{TxnID: 1, RVP: rvp, ReplySocket: 0,
				Run: func(wt *platform.Task, w *Partition) bool {
					ran = true
					wt.Exec(stats.CompOther, 100)
					return true
				}})
			task.Flush()
			if !rvp.Await(p) {
				t.Error("cross-shard vote failed")
			}
			pt.Close()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("posted action never executed")
		}
		if pt.Done() != 1 {
			t.Fatalf("done=%d", pt.Done())
		}
	})
}

// TestConfinedWaitRuleRefusesForeignWaiter pins the engine-sharded
// deadlock policy: a confined partition only lets an action wait on a held
// entity lock when the waiter, the partition and the holder all live on
// the partition's home socket; a cross-socket conflict is refused
// immediately (an abort vote with Refused set) instead of parked where no
// local cycle check could see it.
func TestConfinedWaitRuleRefusesForeignWaiter(t *testing.T) {
	env, pl, pt := confinedFixture(t)
	defer env.Close()
	env.SpawnOn(1, "driver", func(p *sim.Proc) {
		// Txn 1, homed on the partition's socket, takes entity lock "k".
		// Entity locks are two-phase — held past the action until a release
		// — so the lock stays up after the vote comes back.
		task := pl.NewTask(p, pl.Sockets[1].Cores[1], &stats.Breakdown{})
		hold := NewRVPOn(env, 1, pl.ShardOf(1))
		pt.Enqueue(task, &Action{TxnID: 1, LockKey: ent("k"), RVP: hold, ReplySocket: 1,
			Run: func(wt *platform.Task, w *Partition) bool { return true }})
		task.Flush()
		if !hold.Await(p) {
			t.Error("home-socket lock acquisition failed")
		}
		// A socket-0 coordinator now conflicts on "k": the home-socket wait
		// rule must refuse it rather than defer it.
		done := sim.NewSignal(env).OnShard(pl.ShardOf(1))
		foreign := &Action{TxnID: 2, LockKey: ent("k"), RVP: NewRVPOn(env, 1, 0), ReplySocket: 0,
			Run: func(wt *platform.Task, w *Partition) bool { return true }}
		env.SpawnOn(0, "foreign-waiter", func(fp *sim.Proc) {
			ftask := pl.NewTask(fp, pl.Sockets[0].Cores[0], &stats.Breakdown{})
			pt.Enqueue(ftask, foreign)
			ftask.Flush()
			if foreign.RVP.Await(fp) {
				t.Error("foreign conflicting action committed; want refusal")
			}
			if !foreign.Refused {
				t.Error("foreign conflicting action was not marked Refused")
			}
			done.Fire(nil)
		})
		done.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if pt.reg.Deadlocks() == 0 {
		t.Error("cross-socket refusal was not counted")
	}
}
