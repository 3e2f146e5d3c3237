package wal_test

import (
	"testing"

	"bionicdb/internal/hw/logengine"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/wal"
)

// flushed is an appender over a wal.Flusher, as both appenders are.
type flushed interface {
	wal.Appender
	Kick()
	Syncs() int64
}

// TestFlusherContract pins the log-sync daemon both appenders embed: each
// case runs against the software manager and the hardware engine.
func TestFlusherContract(t *testing.T) {
	appenders := []struct {
		name     string
		interval sim.Duration
		build    func(pl *platform.Platform, store *wal.Store) flushed
	}{
		{"manager", wal.DefaultManagerConfig().FlushInterval, func(pl *platform.Platform, store *wal.Store) flushed {
			return wal.NewManager(pl, store, wal.DefaultManagerConfig())
		}},
		{"engine", logengine.DefaultConfig().SyncInterval, func(pl *platform.Platform, store *wal.Store) flushed {
			return logengine.New(pl, store, logengine.DefaultConfig())
		}},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration)
	}{
		{"a kick skips the timer", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			if gap := passGap(t, env, pl, a, interval, true); gap >= interval {
				t.Errorf("kicked: B durable %v after A, want under the %v interval", gap, interval)
			}
		}},
		{"an unkicked pass waits for the timer", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			if gap := passGap(t, env, pl, a, interval, false); gap < interval {
				t.Errorf("not kicked: B durable %v after A, want at least the %v interval", gap, interval)
			}
		}},
		{"an empty pass neither writes nor counts a sync", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			env.Spawn("w", func(p *sim.Proc) {
				p.Wait(5 * interval)
				if store.Len() != 0 || a.Syncs() != 0 {
					t.Errorf("idle: %d bytes written, %d syncs", store.Len(), a.Syncs())
				}
				task := pl.NewTask(p, pl.Cores[0], nil)
				r := rec()
				a.Append(task, &r)
				task.Flush()
				p.Wait(5 * interval)
				if store.Len() == 0 || a.Syncs() != 1 {
					t.Errorf("one record, then idle: %d bytes written, %d syncs, want the record and 1", store.Len(), a.Syncs())
				}
				a.Stop()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"stop drains what a final write leaves staged", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			// Stop lands before the first pass; B is staged while that
			// pass's write is in flight, so one more pass writes it.
			var end wal.LSN
			env.Spawn("w", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[0], nil)
				ra := rec()
				a.Append(task, &ra)
				task.Flush()
				a.Stop()
				p.Wait(interval + 2*sim.Microsecond)
				rb := rec()
				end = a.Append(task, &rb)
				task.Flush()
			})
			if err := env.Run(); err != nil { // returns once the daemon has
				t.Fatal(err)
			}
			if a.Syncs() != 2 || store.Len() != int(end) || a.Durable() != end || a.Backlog() != 0 {
				t.Errorf("after Stop: %d syncs, store at %d, durable %d, backlog %d; want 2 syncs and all at %d with none left",
					a.Syncs(), store.Len(), a.Durable(), a.Backlog(), end)
			}
		}},
		{"the backlog is the staged bytes until their pass", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			env.Spawn("w", func(p *sim.Proc) {
				staged := 0
				var h wal.LSN
				for c := 0; c < 3; c++ {
					task := pl.NewTask(p, pl.Cores[c], nil)
					r := rec()
					staged += r.EncodedSize()
					h = a.Append(task, &r)
					task.Flush()
				}
				if a.Backlog() != staged {
					t.Errorf("before the pass: backlog %d, want the %d staged bytes", a.Backlog(), staged)
				}
				done := sim.NewSignal(env)
				a.CommitDurable(h, done)
				done.Await(p)
				if a.Backlog() != 0 {
					t.Errorf("after the pass: backlog %d, want 0", a.Backlog())
				}
				a.Stop()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"steady passes allocate nothing", func(t *testing.T, env *sim.Env, pl *platform.Platform, store *wal.Store, a flushed, interval sim.Duration) {
			// Every commit is one kicked pass; the batch storage
			// alternates between two buffers, so once both have grown no
			// pass allocates.
			var allocs float64
			env.Spawn("w", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[0], nil)
				done := sim.NewSignal(env)
				r := rec()
				commit := func() {
					h := a.Append(task, &r)
					task.Flush()
					a.Kick()
					a.CommitDurable(h, done)
					done.Await(p)
					done.Reset()
				}
				commit()
				commit()
				syncs := a.Syncs()
				allocs = testing.AllocsPerRun(20, commit)
				if got := a.Syncs() - syncs; got != 21 {
					t.Errorf("%d passes for 21 commits", got)
				}
				a.Stop()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per append and pass, want 0", allocs)
			}
		}},
	}
	for _, c := range cases {
		for _, ap := range appenders {
			t.Run(c.name+"/"+ap.name, func(t *testing.T) {
				env := sim.NewEnv()
				pl := platform.New(env, platform.HC2())
				store := wal.NewStore(pl.SSD)
				c.run(t, env, pl, store, ap.build(pl, store), ap.interval)
			})
		}
	}
}

// rec returns a record neither appender kicks a pass for.
func rec() wal.Record {
	return wal.Record{Txn: 1, Type: wal.RecUpdate, Key: []byte("k"), After: []byte("v")}
}

// passGap stages A for the first pass and B while A's write is in flight,
// kicking a pass for B when kick is set, and returns how long after A
// became durable B did.
func passGap(t *testing.T, env *sim.Env, pl *platform.Platform, a flushed, interval sim.Duration, kick bool) sim.Duration {
	var gap sim.Duration
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		ra, rb := rec(), rec()
		ha := a.Append(task, &ra)
		task.Flush()
		p.Wait(interval + 2*sim.Microsecond)
		hb := a.Append(task, &rb)
		task.Flush()
		if kick {
			a.Kick()
		}
		done := sim.NewSignal(env)
		a.CommitDurable(ha, done)
		done.Await(p)
		at := env.Now()
		done.Reset()
		a.CommitDurable(hb, done)
		done.Await(p)
		gap = env.Now().Sub(at)
		a.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return gap
}
