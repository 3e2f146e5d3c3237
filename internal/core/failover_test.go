package core

import (
	"bytes"
	"fmt"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// TestFailoverCrashRecovery is the replication subsystem's end-to-end
// guarantee, pinned at 1, 2 and 4 sockets for every commit-wait mode: kill
// the primary mid-run, promote the surviving replica image through the
// measured recovery path, and the replica must serve exactly the primary's
// shipped prefix — with zero lost acknowledged commits under sync and
// quorum, and an async loss window bounded by the observed replication lag.
func TestFailoverCrashRecovery(t *testing.T) {
	for _, sockets := range []int{1, 2, 4} {
		for _, mode := range []stats.ReplMode{stats.ReplAsync, stats.ReplSync, stats.ReplQuorum} {
			sockets, mode := sockets, mode
			t.Run(fmt.Sprintf("x%d-%s", sockets, mode), func(t *testing.T) {
				cfg := platform.HC2ScaledSharded(sockets)
				cfg.Replicas = 2
				cfg.ReplMode = mode
				env := sim.NewEnv()
				defer env.Close()
				e := NewDORA(env, cfg, kvTables(), HashScheme(cfg.TotalCores()))
				rs := e.LogSet().Replication()
				if rs == nil {
					t.Fatal("replicated engine built no ReplicaSet")
				}
				for i := 0; i < 400; i++ {
					e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("base-%d", i)))
				}
				// Warm like the harness does: a cold buffer pool pays the
				// modeled disk latency per first touch and starves the short
				// crash window of commits.
				e.Warm()
				// Checkpoint sharp before any terminal exists.
				var meta CheckpointMeta
				ckDone := false
				env.Spawn("checkpointer", func(p *sim.Proc) {
					meta = checkpointed(t, p, e)
					ckDone = true
				})
				for !ckDone {
					if err := env.RunUntil(env.Now() + sim.Time(sim.Millisecond)); err != nil {
						t.Fatal(err)
					}
				}
				// Terminals run forever; the cold crash is the stopping point.
				for i := 0; i < 2*sockets; i++ {
					i := i
					tr := sim.NewRand(uint64(100 + i))
					env.Spawn(fmt.Sprintf("terminal%d", i), func(tp *sim.Proc) {
						term := &Terminal{ID: i, P: tp, Core: e.Platform().Cores[i%len(e.Platform().Cores)], R: tr}
						for n := 0; ; n++ {
							k1 := storage.Uint64Key(uint64(term.R.Intn(400)))
							k2 := storage.Uint64Key(uint64(term.R.Intn(400)))
							v := []byte(fmt.Sprintf("mut-%d-%d", i, n))
							if n%3 == 0 && !bytes.Equal(k1, k2) {
								e.Submit(term, func(tx Tx) bool {
									return tx.Phase(
										Action{Table: 1, Key: k1, Body: func(c AccessCtx) bool {
											c.Update(1, k1, v)
											return true
										}},
										Action{Table: 1, Key: k2, Body: func(c AccessCtx) bool {
											c.Update(1, k2, v)
											return true
										}})
								})
								continue
							}
							e.Submit(term, func(tx Tx) bool {
								return tx.Phase(Action{Table: 1, Key: k1, Body: func(c AccessCtx) bool {
									if !c.Update(1, k1, v) {
										c.Insert(1, k1, v)
									}
									return true
								}})
							})
						}
					})
				}
				if err := env.RunUntil(env.Now() + sim.Time(3*sim.Millisecond)); err != nil {
					t.Fatal(err)
				}
				acked := e.Counters().Get("commits")
				if acked == 0 {
					t.Fatal("no transactions acknowledged before the kill")
				}
				primary := e.LogSet().Datas()
				replicaLogs, replicaBytes, lostTail := rs.CrashImage()

				// Every surviving copy is a literal byte prefix of its shard.
				truncated := make([][]byte, len(primary))
				for s := range primary {
					if len(replicaLogs[s]) > len(primary[s]) ||
						!bytes.Equal(replicaLogs[s], primary[s][:len(replicaLogs[s])]) {
						t.Fatalf("shard %d replica copy is not a primary prefix", s)
					}
					truncated[s] = primary[s][:len(replicaLogs[s])]
				}
				if replicaBytes == 0 {
					t.Fatal("no bytes survived on any replica")
				}

				// The promoted replica and a direct recovery of the shipped
				// prefix must serve identical content.
				img := Image{Cfg: cfg, Defs: kvTables(), Meta: meta, DM: e.DiskManager(), Logs: primary}
				replica, st, _, err := Boot(img, replicaLogs, true, DefaultDetect)
				if err != nil {
					t.Fatal(err)
				}
				oracle, _, _, err := Boot(img, truncated, true, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ContentDigest(replica), ContentDigest(oracle); got != want {
					t.Errorf("replica content diverged from the primary's shipped prefix:\n got  %s\n want %s", got, want)
				}
				if st.Shards != len(replicaLogs) || st.SimTime <= 0 {
					t.Errorf("recovery stats %+v", st)
				}

				lost := acked - st.Txns
				switch mode {
				case stats.ReplSync, stats.ReplQuorum:
					// Every acknowledged commit waited for enough replica
					// acks, so the surviving image replays all of them.
					if lost > 0 {
						t.Errorf("%s lost %d of %d acknowledged commits", mode, lost, acked)
					}
				case stats.ReplAsync:
					// Async may lose the unshipped tail, but never more than
					// the lag the shippers actually ran at: the lost bytes are
					// the crash-instant lag, bounded by each shard's observed
					// maximum plus one inter-tick write burst of slack.
					var lagSum int64
					for _, st := range rs.Stats() {
						lagSum += st.LagBytesMax
					}
					if lostTail > lagSum+64<<10 {
						t.Errorf("async lost %d tail bytes, above the observed lag bound %d",
							lostTail, lagSum+64<<10)
					}
				}
			})
		}
	}
}

// TestFailoverServesWrites promotes a replica and verifies the recovered
// tree actually holds a mutated row — the failover image is usable state,
// not just a digest.
func TestFailoverServesWrites(t *testing.T) {
	cfg := platform.HC2ScaledSharded(2)
	cfg.Replicas = 2
	cfg.ReplMode = stats.ReplSync
	env := sim.NewEnv()
	defer env.Close()
	e := NewDORA(env, cfg, kvTables(), HashScheme(cfg.TotalCores()))
	k := storage.Uint64Key(7)
	e.Load(1, k, []byte("before"))
	var meta CheckpointMeta
	env.Spawn("driver", func(p *sim.Proc) {
		meta = checkpointed(t, p, e)
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		if !e.Submit(term, func(tx Tx) bool {
			return tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
				return c.Update(1, k, []byte("after"))
			}})
		}) {
			t.Error("update did not commit")
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	logs, _, _ := e.LogSet().Replication().CrashImage()
	img := Image{Cfg: cfg, Defs: kvTables(), Meta: meta, DM: e.DiskManager(), Logs: e.LogSet().Datas()}
	trees, _, joules, err := Boot(img, logs, true, DefaultDetect)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := trees[1].Get(k, nil); !ok || !bytes.Equal(v, []byte("after")) {
		t.Errorf("promoted replica serves %q, want the sync-acknowledged update", v)
	}
	if joules <= 0 {
		t.Errorf("failover boot drew %g J", joules)
	}
}
