package wal

import (
	"fmt"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func TestShardVecRoundTripSorted(t *testing.T) {
	vec := []ShardLSN{{Shard: 3, LSN: 1 << 40}, {Shard: 0, LSN: 7}, {Shard: 12, LSN: 0}}
	enc := EncodeShardVec(nil, vec)
	if len(enc) != 3*shardVecEntrySize {
		t.Fatalf("encoded %d bytes", len(enc))
	}
	got, err := DecodeShardVec(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardLSN{{Shard: 0, LSN: 7}, {Shard: 3, LSN: 1 << 40}, {Shard: 12, LSN: 0}}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: %+v want %+v", i, got[i], want[i])
		}
	}
	if _, err := DecodeShardVec(enc[:len(enc)-1]); err == nil {
		t.Error("truncated vector decoded without error")
	}
}

// shardedFixture builds a 2-socket sharded-log machine with one software
// manager per socket.
func shardedFixture(t *testing.T) (*sim.Env, *platform.Platform, *LogSet, []*Manager) {
	t.Helper()
	return shardedFixtureOn(t, platform.HC2ScaledSharded(2))
}

// shardedFixtureOn is shardedFixture on cfg, a two-socket machine with a log
// device per socket.
func shardedFixtureOn(t *testing.T, cfg *platform.Config) (*sim.Env, *platform.Platform, *LogSet, []*Manager) {
	t.Helper()
	env := sim.NewEnv()
	pl := platform.New(env, cfg)
	var shards []LogShard
	var mgrs []*Manager
	for s := 0; s < 2; s++ {
		st := NewStore(pl.LogSSD(s))
		m := NewManager(pl, st, DefaultManagerConfig())
		mgrs = append(mgrs, m)
		shards = append(shards, LogShard{App: m, Store: st, Socket: s})
	}
	return env, pl, NewLogSet(pl, shards), mgrs
}

func TestLogSetRoutesBySocket(t *testing.T) {
	env, pl, ls, mgrs := shardedFixture(t)
	ls.Register([]LSN{0, 0}) // the test decodes the raw stores
	env.Spawn("w", func(p *sim.Proc) {
		for s := 0; s < 2; s++ {
			core := pl.Sockets[s].Cores[0]
			task := pl.NewTask(p, core, &stats.Breakdown{})
			if got := ls.ShardFor(task); got != s {
				t.Errorf("ShardFor(socket %d core) = %d", s, got)
			}
			rec := Record{Txn: uint64(s + 1), Type: RecInsert, Key: []byte{byte(s)}, After: []byte("v")}
			ls.Append(task, s, &rec)
			task.Flush()
		}
		for _, m := range mgrs {
			m.Stop()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		n := 0
		var txn uint64
		if err := Scan(ls.Store(s).Bytes(), 0, func(r Record) bool { n++; txn = r.Txn; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 1 || txn != uint64(s+1) {
			t.Errorf("shard %d holds %d records (txn %d)", s, n, txn)
		}
	}
}

func TestLogSetVectorDurablePoint(t *testing.T) {
	env, pl, ls, mgrs := shardedFixture(t)
	var firedAt sim.Time
	var shard1Durable sim.Time
	env.Spawn("w", func(p *sim.Proc) {
		t0 := pl.NewTask(p, pl.Sockets[0].Cores[0], &stats.Breakdown{})
		rec0 := Record{Txn: 1, Type: RecInsert, Key: []byte("a"), After: []byte("x")}
		l0 := ls.Append(t0, 0, &rec0)
		t0.Flush()
		// Shard 1's record is appended later, so its flush lands later:
		// the vector signal must wait for the slower shard.
		p.Wait(40 * sim.Microsecond)
		t1 := pl.NewTask(p, pl.Sockets[1].Cores[0], &stats.Breakdown{})
		rec1 := Record{Txn: 1, Type: RecUpdate, Key: []byte("b"), After: []byte("y")}
		l1 := ls.Append(t1, 1, &rec1)
		t1.Flush()
		done := sim.NewSignal(env)
		ls.CommitDurableIn(nil, []ShardLSN{{Shard: 0, LSN: l0}, {Shard: 1, LSN: l1}}, done)
		done.Await(p)
		firedAt = p.Now()
		if ls.Durable(0) < l0 || ls.Durable(1) < l1 {
			t.Error("vector fired before both shards durable")
		}
		sub := sim.NewSignal(env)
		ls.Shard(1).CommitDurable(l1, sub)
		if !sub.Fired() {
			t.Error("shard 1 not durable at vector fire")
		}
		shard1Durable = p.Now()
		for _, m := range mgrs {
			m.Stop()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt == 0 || firedAt < shard1Durable {
		t.Errorf("vector durable point at %v, shard1 durable at %v", firedAt, shard1Durable)
	}
}

// TestCommitDurableInReusesTheJoin commits two-shard vectors, awaiting each
// commit signal before the next commit as a transaction's owner does.
// Unreplicated, the commit signal is armed per shard and registered on both
// shards' durable points: CommitDurableIn hands back no join, and a
// cross-shard commit allocates nothing. Replicated under sync with the
// flight recorder's anatomy attached, the commit goes through one reused
// DurableJoin, which waits for both replicas' acks on both shards and
// records the wait, and still allocates nothing.
func TestCommitDurableInReusesTheJoin(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		name := "local"
		cfg := platform.HC2ScaledSharded(2)
		if replicated {
			name = "replicated"
			cfg = platform.HC2Replicated(2, 2, stats.ReplSync)
			cfg.LogDevPerSocket = true
		}
		t.Run(name, func(t *testing.T) {
			env, pl, ls, _ := shardedFixtureOn(t, cfg)
			var an stats.Anatomy
			if replicated {
				rs := NewReplicaSet(ls)
				ls.AttachReplication(rs)
				rs.SetObs(nil, &an)
			}
			var allocs float64
			commits := int64(0)
			env.Spawn("w", func(p *sim.Proc) {
				t0 := pl.NewTask(p, pl.Sockets[0].Cores[0], nil)
				t1 := pl.NewTask(p, pl.Sockets[1].Cores[0], nil)
				var j *DurableJoin
				done := sim.NewSignal(env)
				rec := Record{Txn: 1, Type: RecUpdate, Key: []byte("k"), After: []byte("v")}
				vec := make([]ShardLSN, 2)
				commit := func() {
					vec[0] = ShardLSN{Shard: 0, LSN: ls.Append(t0, 0, &rec)}
					t0.Flush()
					vec[1] = ShardLSN{Shard: 1, LSN: ls.Append(t1, 1, &rec)}
					t1.Flush()
					j = ls.CommitDurableIn(j, vec, done)
					if !replicated && j != nil {
						t.Error("an unreplicated commit kept a join")
					}
					done.Await(p)
					if ls.Durable(0) < vec[0].LSN || ls.Durable(1) < vec[1].LSN {
						t.Error("commit signal fired before both shards were durable")
					}
					if rs := ls.Replication(); rs != nil {
						for r := 0; r < rs.Replicas(); r++ {
							if acked := rs.acked[r]; acked[0] < vec[0].LSN || acked[1] < vec[1].LSN {
								t.Errorf("sync commit signal fired before replica %d acked both shards", r)
							}
						}
					}
					done.Reset()
					commits++
				}
				commit()
				allocs = testing.AllocsPerRun(20, commit)
				ls.Stop()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per two-shard commit through a reused join, want 0", allocs)
			}
			if got := an.Phase(stats.PhaseRepl).Count(); replicated && got != commits {
				t.Errorf("%d replica-ack waits recorded, want one per commit (%d)", got, commits)
			}
		})
	}
}

func TestLogSetStats(t *testing.T) {
	env, pl, ls, mgrs := shardedFixture(t)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Sockets[1].Cores[0], &stats.Breakdown{})
		rec := Record{Txn: 1, Type: RecInsert, Key: []byte("k"), After: []byte("v")}
		ls.Append(task, 1, &rec)
		task.Flush()
		for _, m := range mgrs {
			m.Stop()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := ls.Stats()
	if len(st) != 2 {
		t.Fatalf("%d stat entries", len(st))
	}
	if st[0].Bytes != 0 || st[1].Bytes == 0 {
		t.Errorf("bytes per shard: %+v", st)
	}
	if st[1].Syncs == 0 || st[1].Epochs != 0 {
		t.Errorf("software shard counters: %+v", st[1])
	}
	for s, e := range st {
		if e.Shard != s {
			t.Errorf("entry %d names shard %d", s, e.Shard)
		}
	}
}

func TestSignalOnFireJoin(t *testing.T) {
	env := sim.NewEnv()
	fired := []string{}
	done := sim.NewSignal(env)
	remaining := 3
	subs := make([]*sim.Signal, 3)
	for i := range subs {
		i := i
		subs[i] = sim.NewSignal(env)
		subs[i].OnFire(func() {
			fired = append(fired, fmt.Sprintf("sub%d", i))
			remaining--
			if remaining == 0 {
				done.Fire()
			}
		})
	}
	env.Spawn("w", func(p *sim.Proc) {
		subs[2].Fire()
		subs[0].Fire()
		if done.Fired() {
			t.Error("join fired early")
		}
		subs[1].Fire()
		if !done.Fired() {
			t.Error("join did not fire on last arrival")
		}
		// OnFire on an already-fired signal runs immediately.
		ran := false
		subs[0].OnFire(func() { ran = true })
		if !ran {
			t.Error("OnFire on fired signal did not run")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != "sub2" || fired[1] != "sub0" || fired[2] != "sub1" {
		t.Errorf("fire order %v", fired)
	}
}

// Durable returns shard i's durable horizon.
func (ls *LogSet) Durable(i int) LSN { return ls.shards[i].App.Durable() }

// Shard returns shard i's appender.
func (ls *LogSet) Shard(i int) Appender { return ls.shards[i].App }
