package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bionicdb/internal/btree"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
)

// boot recovers e's checkpoint plus logs serially on a fresh machine.
func boot(t *testing.T, e Engine, meta CheckpointMeta, logs [][]byte) map[uint16]*btree.Tree {
	t.Helper()
	img := Image{Cfg: e.Platform().Cfg, Defs: kvTables(), Meta: meta, DM: e.DiskManager()}
	trees, _, _, err := Boot(img, logs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// checkpointed is Checkpoint of e from process p, for tests whose rows all
// fit the image format.
func checkpointed(t *testing.T, p *sim.Proc, e Engine) CheckpointMeta {
	meta, err := Checkpoint(p, e.Tables(), e.DiskManager(), e.LogSet())
	if err != nil {
		t.Error(err)
	}
	return meta
}

// TestRecoveryAcrossEngines checkpoints, mutates, crashes and recovers each
// engine flavor, verifying the recovered image matches the live state —
// including the hardware log engine's epoch-collected stream.
func TestRecoveryAcrossEngines(t *testing.T) {
	cases := map[string]func(env *sim.Env) Engine{
		"conventional": func(env *sim.Env) Engine {
			return NewConventional(env, platform.HC2(), kvTables())
		},
		"dora-softlog": func(env *sim.Env) Engine {
			return NewDORA(env, platform.HC2(), kvTables(), HashScheme(4))
		},
		"bionic-hwlog": func(env *sim.Env) Engine {
			return NewBionic(env, platform.HC2(), kvTables(), HashScheme(4), AllOffloads(), 8)
		},
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv()
			e := mk(env)
			for i := 0; i < 300; i++ {
				e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("base-%d", i)))
			}
			var meta CheckpointMeta
			env.Spawn("driver", func(p *sim.Proc) {
				meta = checkpointed(t, p, e)
				term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
				r := sim.NewRand(uint64(len(name)))
				for i := 0; i < 80; i++ {
					k := storage.Uint64Key(uint64(r.Intn(300)))
					v := []byte(fmt.Sprintf("mut-%d", i))
					op := r.Intn(3)
					e.Submit(term, func(tx Tx) bool {
						return tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
							switch op {
							case 0:
								if !c.Update(1, k, v) {
									return c.Insert(1, k, v)
								}
								return true
							case 1:
								c.Delete(1, k)
								return true
							default:
								if !c.Insert(1, k, v) {
									return c.Update(1, k, v)
								}
								return true
							}
						}})
					})
				}
				e.Close()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			trees := boot(t, e, meta, e.LogSet().Datas())
			live := e.Tables()[1]
			rec := trees[1]
			if rec.Size() != live.Size() {
				t.Errorf("recovered %d rows, live %d", rec.Size(), live.Size())
			}
			live.Scan(nil, nil, nil, func(k, v []byte) bool {
				got, ok := rec.Get(k, nil)
				if !ok || !bytes.Equal(got, v) {
					t.Errorf("row %x diverged", k)
					return false
				}
				return true
			})
			if err := rec.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShardedCrashRecovery pins the sharded durability subsystem's read
// side at 1, 2 and 4 sockets, for both the software and the hardware log
// path: after a clean shutdown (every acknowledged commit durable), the
// recovered table content must be byte-identical to the live engine's
// post-run state — and the measured parallel replay must recover exactly
// the same content as the serial one.
func TestShardedCrashRecovery(t *testing.T) {
	for _, sockets := range []int{1, 2, 4} {
		for _, hw := range []bool{false, true} {
			name := fmt.Sprintf("x%d-soft", sockets)
			if hw {
				name = fmt.Sprintf("x%d-hw", sockets)
			}
			t.Run(name, func(t *testing.T) {
				cfg := platform.HC2ScaledSharded(sockets)
				env := sim.NewEnv()
				defer env.Close()
				scheme := HashScheme(cfg.TotalCores())
				var e *DORAEngine
				if hw {
					e = NewBionic(env, cfg, kvTables(), scheme, Offloads{Log: true}, 8)
				} else {
					e = NewDORA(env, cfg, kvTables(), scheme)
				}
				if got := e.LogSet().NumShards(); (sockets == 1 && got != 1) || (sockets > 1 && got != sockets) {
					t.Fatalf("%d sockets built %d log shards", sockets, got)
				}
				for i := 0; i < 400; i++ {
					e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("base-%d", i)))
				}
				var meta CheckpointMeta
				env.Spawn("driver", func(p *sim.Proc) {
					meta = checkpointed(t, p, e)
					term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
					r := sim.NewRand(uint64(7 + sockets))
					for i := 0; i < 150; i++ {
						k1 := storage.Uint64Key(uint64(r.Intn(400)))
						k2 := storage.Uint64Key(uint64(r.Intn(400)))
						v := []byte(fmt.Sprintf("mut-%d", i))
						if i%3 == 0 && !bytes.Equal(k1, k2) {
							// Multi-action transaction: with one partition
							// per core the two keys regularly land on
							// different sockets, exercising the cross-shard
							// commit vector.
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
								switch i % 5 {
								case 1:
									c.Delete(1, k1)
								case 2:
									if !c.Insert(1, k1, v) {
										c.Update(1, k1, v)
									}
								default:
									if !c.Update(1, k1, v) {
										c.Insert(1, k1, v)
									}
								}
								return true
							}})
						})
					}
					e.Close()
				})
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				liveDigest := ContentDigest(e.Tables())
				logs := e.LogSet().Datas()

				// Serial and parallel replays on a fresh boot must both
				// reproduce the live content exactly.
				img := Image{Cfg: cfg, Defs: kvTables(), Meta: meta, DM: e.DiskManager(), Logs: logs}
				for _, par := range []bool{false, true} {
					trees, st, _, err := Boot(img, logs, par, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got := ContentDigest(trees); got != liveDigest {
						t.Errorf("replay (parallel=%v) diverged:\n got  %s\n want %s", par, got, liveDigest)
					}
					if err := trees[1].Validate(); err != nil {
						t.Error(err)
					}
					if st.Shards != len(logs) || st.SimTime <= 0 {
						t.Errorf("recovery stats %+v", st)
					}
				}
			})
		}
	}
}

// TestCrossShardTornVector pins the vector durable point's recovery
// guarantee: a cross-shard transaction whose remote shard's data did not
// survive the crash must not be replayed at all — not even its anchor-shard
// records — because its commit record's vector no longer validates.
func TestCrossShardTornVector(t *testing.T) {
	cfg := platform.HC2ScaledSharded(2)
	env := sim.NewEnv()
	defer env.Close()
	scheme := HashScheme(cfg.TotalCores())
	e := NewDORA(env, cfg, kvTables(), scheme)
	// Find keys homed on sockets 0 and 1 (partition p lives on core p,
	// socket p/Cores).
	var k0, k1 []byte
	for i := uint64(0); k0 == nil || k1 == nil; i++ {
		k := storage.Uint64Key(i)
		if scheme.Route(1, k) < cfg.Cores {
			if k0 == nil {
				k0 = k
			}
		} else if k1 == nil {
			k1 = k
		}
	}
	e.Load(1, k0, []byte("before-0"))
	e.Load(1, k1, []byte("before-1"))
	var meta CheckpointMeta
	env.Spawn("driver", func(p *sim.Proc) {
		meta = checkpointed(t, p, e)
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		ok := e.Submit(term, func(tx Tx) bool {
			return tx.Phase(
				Action{Table: 1, Key: k0, Body: func(c AccessCtx) bool { return c.Update(1, k0, []byte("after-0")) }},
				Action{Table: 1, Key: k1, Body: func(c AccessCtx) bool { return c.Update(1, k1, []byte("after-1")) }})
		})
		if !ok {
			t.Error("cross-shard transaction did not commit")
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	logs := e.LogSet().Datas()
	// Tear shard 1 back to its checkpoint position: the transaction's
	// shard-1 data is gone, as after a crash that lost that device's tail.
	torn := make([][]byte, len(logs))
	copy(torn, logs)
	torn[1] = torn[1][:meta.StartLSNs[1]]
	get := func(trees map[uint16]*btree.Tree, k []byte) []byte {
		v, _ := trees[1].Get(k, nil)
		return v
	}
	trees := boot(t, e, meta, torn)
	if v := get(trees, k0); !bytes.Equal(v, []byte("before-0")) {
		t.Errorf("anchor-shard record of a vector-incomplete commit replayed: k0=%q", v)
	}
	if v := get(trees, k1); !bytes.Equal(v, []byte("before-1")) {
		t.Errorf("torn-shard record replayed: k1=%q", v)
	}
	// Sanity: with the full logs, the same recovery replays both sides.
	trees = boot(t, e, meta, logs)
	if v := get(trees, k0); !bytes.Equal(v, []byte("after-0")) {
		t.Errorf("intact recovery lost k0: %q", v)
	}
	if v := get(trees, k1); !bytes.Equal(v, []byte("after-1")) {
		t.Errorf("intact recovery lost k1: %q", v)
	}
}

// TestRecoveryIgnoresUncommittedTail simulates a crash with a torn log
// tail: the damaged suffix must be skipped and everything before it
// recovered.
func TestRecoveryIgnoresUncommittedTail(t *testing.T) {
	env := sim.NewEnv()
	e := NewDORA(env, platform.HC2(), kvTables(), HashScheme(2))
	for i := 0; i < 100; i++ {
		e.Load(1, storage.Uint64Key(uint64(i)), []byte("base"))
	}
	var meta CheckpointMeta
	env.Spawn("driver", func(p *sim.Proc) {
		meta = checkpointed(t, p, e)
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		k := storage.Uint64Key(5)
		e.Submit(term, func(tx Tx) bool {
			return tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
				return c.Update(1, k, []byte("committed"))
			}})
		})
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Tear the last 5 bytes off the durable log.
	data := e.LogSet().Datas()[0]
	trees := boot(t, e, meta, [][]byte{data[:len(data)-5]})
	// The committed update's commit record may itself be in the torn
	// region; either way recovery must not corrupt anything.
	if err := trees[1].Validate(); err != nil {
		t.Error(err)
	}
	if trees[1].Size() != 100 {
		t.Errorf("size=%d", trees[1].Size())
	}
}

// TestCheckpointRefusesOverlongRows: a 65 535-byte row, the most a
// checkpoint image's u16 field holds, comes back from a boot, and a row one
// byte longer makes Checkpoint return an error naming its table, page and
// length instead of writing an image recovery would reject.
func TestCheckpointRefusesOverlongRows(t *testing.T) {
	for _, size := range []int{65535, 65536} {
		env := sim.NewEnv()
		e := NewConventional(env, platform.HC2(), kvTables())
		for i := 0; i < 100; i++ {
			e.Load(1, storage.Uint64Key(uint64(i)), []byte("base"))
		}
		long := bytes.Repeat([]byte{0xAB}, size)
		k := storage.Uint64Key(7)
		e.Load(1, k, long)
		var meta CheckpointMeta
		var err error
		env.Spawn("driver", func(p *sim.Proc) {
			meta, err = Checkpoint(p, e.Tables(), e.DiskManager(), e.LogSet())
			e.Close()
		})
		if runErr := env.Run(); runErr != nil {
			t.Fatal(runErr)
		}
		if size > 65535 {
			if err == nil || !strings.Contains(err.Error(), "table 1") || !strings.Contains(err.Error(), "page ") ||
				!strings.Contains(err.Error(), "65536 bytes") {
				t.Errorf("Checkpoint with a %d-byte row: error %v, want one naming table 1, its page and the length", size, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		trees := boot(t, e, meta, e.LogSet().Datas())
		if v, ok := trees[1].Get(k, nil); !ok || !bytes.Equal(v, long) {
			t.Errorf("the %d-byte row did not come back from the checkpoint", size)
		}
	}
}

// TestFailedCheckpointKeepsThePreviousOne: a checkpoint that fails on a row
// the image format cannot hold stores no page and changes no tree, so the
// checkpoint before it still boots to the rows it held. Storing each page
// as it is serialized would replace the earlier pages of the previous
// checkpoint before the walk reached the overlong row.
func TestFailedCheckpointKeepsThePreviousOne(t *testing.T) {
	env := sim.NewEnv()
	e := NewConventional(env, platform.HC2(), kvTables())
	for i := 0; i < 300; i++ {
		e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("base-%d", i)))
	}
	var first CheckpointMeta
	var err error
	var digest string
	// images returns every page image stored below the next free page id
	// (allocating that id, which no checkpoint then uses).
	dm := e.DiskManager()
	images := func() []string {
		var out []string
		for id, hi := storage.PageID(1), dm.Allocate(); id < hi; id++ {
			out = append(out, string(dm.ReadRaw(id)))
		}
		return out
	}
	var before []string
	env.Spawn("driver", func(p *sim.Proc) {
		first = checkpointed(t, p, e)
		e.Load(1, storage.Uint64Key(3), []byte("changed-after-checkpoint-1"))
		e.Load(1, storage.Uint64Key(99), bytes.Repeat([]byte{0xAB}, 70000))
		before, digest = images(), ContentDigest(e.Tables())
		_, err = Checkpoint(p, e.Tables(), dm, e.LogSet())
		e.Close()
	})
	if runErr := env.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err == nil {
		t.Fatal("checkpointed a 70 000-byte row")
	}
	t.Log(err)
	after := images()
	for id := range after {
		if id >= len(before) && after[id] != "" || id < len(before) && after[id] != before[id] {
			t.Errorf("the failed checkpoint stored page %d", id+1)
		}
	}
	if got := ContentDigest(e.Tables()); got != digest {
		t.Errorf("the failed checkpoint changed the live trees' content: %s, was %s", got, digest)
	}
	trees := boot(t, e, first, e.LogSet().Datas())
	if v, ok := trees[1].Get(storage.Uint64Key(3), nil); !ok || string(v) != "base-3" {
		t.Errorf("the first checkpoint boots row 3 as %q, want %q", v, "base-3")
	}
	if v, ok := trees[1].Get(storage.Uint64Key(99), nil); !ok || string(v) != "base-99" {
		t.Errorf("the first checkpoint boots row 99 as %.20q, want %q", v, "base-99")
	}
}

// TestCheckpointAfterCommitsRecovers checkpoints a log that already holds
// committed transactions, so each shard's store keeps only the bytes from
// that checkpoint's start on and hands recovery an image that begins there,
// and then checkpoints again further on, so the boot replays from inside
// the image. Transactions committed after the checkpoints, and one that
// aborts, must recover to the live state on every engine, with a central
// log and with two sharded ones (the conventional engine never shards its
// log).
func TestCheckpointAfterCommitsRecovers(t *testing.T) {
	engines := map[string]func(env *sim.Env, cfg *platform.Config) Engine{
		"conventional": func(env *sim.Env, cfg *platform.Config) Engine {
			return NewConventional(env, cfg, kvTables())
		},
		"dora": func(env *sim.Env, cfg *platform.Config) Engine {
			return NewDORA(env, cfg, kvTables(), HashScheme(cfg.TotalCores()))
		},
		"bionic": func(env *sim.Env, cfg *platform.Config) Engine {
			return NewBionic(env, cfg, kvTables(), HashScheme(cfg.TotalCores()), AllOffloads(), 8)
		},
	}
	for _, name := range []string{"conventional", "dora", "bionic"} {
		for _, sockets := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-x%d", name, sockets), func(t *testing.T) {
				cfg := platform.HC2()
				if sockets > 1 {
					cfg = platform.HC2ScaledSharded(sockets)
				}
				env := sim.NewEnv()
				defer env.Close()
				e := engines[name](env, cfg)
				for i := 0; i < 300; i++ {
					e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("base-%d", i)))
				}
				r := sim.NewRand(uint64(11 + sockets))
				var first, meta CheckpointMeta
				env.Spawn("driver", func(p *sim.Proc) {
					term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
					// Every third transaction writes two keys, which on two
					// sockets often live on different shards: its commit
					// record carries a shard vector of log positions.
					commit := func(i int) {
						k1 := storage.Uint64Key(uint64(r.Intn(300)))
						k2 := storage.Uint64Key(uint64(r.Intn(300)))
						v := []byte(fmt.Sprintf("mut-%d", i))
						write := func(k []byte) Action {
							return Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
								if i%4 == 1 {
									return c.Delete(1, k) || c.Insert(1, k, v)
								}
								return c.Update(1, k, v) || c.Insert(1, k, v)
							}}
						}
						e.Submit(term, func(tx Tx) bool {
							if i%3 == 0 && !bytes.Equal(k1, k2) {
								return tx.Phase(write(k1), write(k2))
							}
							return tx.Phase(write(k1))
						})
					}
					for i := 0; i < 60; i++ {
						commit(i)
						if i == 29 {
							first = checkpointed(t, p, e)
						}
					}
					meta = checkpointed(t, p, e)
					for i := 60; i < 120; i++ {
						commit(i)
						if i == 90 {
							k := storage.Uint64Key(7)
							e.Submit(term, func(tx Tx) bool {
								tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
									return c.Update(1, k, []byte("aborted")) || c.Insert(1, k, []byte("aborted"))
								}})
								return false
							})
						}
					}
					e.Close()
				})
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				if e.Counters().Get("aborts.user") != 1 {
					t.Errorf("aborts.user = %d, want 1", e.Counters().Get("aborts.user"))
				}
				ls := e.LogSet()
				logs := ls.Datas()
				for s := range logs {
					base, start, n := first.StartLSNs[s], meta.StartLSNs[s], ls.Store(s).Len()
					if base == 0 || start <= base || meta.LogBases[s] != base || len(logs[s]) != n-int(base) {
						t.Errorf("shard %d: checkpoints at %d and %d, image from %d of %d bytes, log of %d: want the log from the first, nonzero, checkpoint on",
							s, base, start, meta.LogBases[s], len(logs[s]), n)
					}
				}
				trees := boot(t, e, meta, logs)
				if got, want := ContentDigest(trees), ContentDigest(e.Tables()); got != want {
					t.Errorf("recovered content diverged from the live tables:\n got  %s\n want %s", got, want)
				}
				if err := trees[1].Validate(); err != nil {
					t.Error(err)
				}
				// An image that starts past the checkpoint's start is an
				// error, never a shorter replay.
				early := meta
				early.StartLSNs = append([]wal.LSN(nil), meta.StartLSNs...)
				early.StartLSNs[0] = meta.LogBases[0] - 1
				img := Image{Cfg: e.Platform().Cfg, Defs: kvTables(), Meta: early, DM: e.DiskManager()}
				if _, _, _, err := Boot(img, logs, false, 0); err == nil {
					t.Error("a boot replaying from below the image's first byte succeeded")
				}
			})
		}
	}
}
