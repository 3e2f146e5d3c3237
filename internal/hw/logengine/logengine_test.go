package logengine

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

func fixture() (*sim.Env, *platform.Platform, *wal.Store, *Engine) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	store := wal.NewStore(pl.SSD)
	e := New(pl, store, DefaultConfig())
	return env, pl, store, e
}

func TestAppendAndCommitDurable(t *testing.T) {
	env, pl, store, e := fixture()
	store.Register(0) // the test decodes the raw store
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		rec := wal.Record{Txn: 1, Type: wal.RecInsert, Key: []byte("k"), After: []byte("v")}
		e.Append(task, &rec)
		commit := wal.Record{Txn: 1, Type: wal.RecCommit}
		h := e.Append(task, &commit)
		task.Flush()
		done := sim.NewSignal(env)
		e.CommitDurable(h, done)
		done.Await(p)
		if e.Durable() < h {
			t.Error("durable watermark behind commit")
		}
		e.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The durable stream must decode to both records.
	var types []wal.RecType
	if err := wal.Scan(store.Bytes(), 0, func(r wal.Record) bool {
		types = append(types, r.Type)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != wal.RecInsert || types[1] != wal.RecCommit {
		t.Fatalf("durable types %v", types)
	}
}

func TestCrossCoreRecordsDurableWithCommit(t *testing.T) {
	// Records staged on different cores must all be durable once a later
	// commit (on yet another core) acks — the epoch-collection guarantee.
	env, pl, store, e := fixture()
	store.Register(0) // the test decodes the raw store
	var handles []wal.LSN
	env.Spawn("worker0", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		rec := wal.Record{Txn: 7, Type: wal.RecInsert, Key: []byte("a"), After: []byte("x")}
		handles = append(handles, e.Append(task, &rec))
		task.Flush()
	})
	env.Spawn("worker1", func(p *sim.Proc) {
		p.Wait(sim.Microsecond)
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rec := wal.Record{Txn: 7, Type: wal.RecUpdate, Key: []byte("b"), After: []byte("y")}
		handles = append(handles, e.Append(task, &rec))
		task.Flush()
	})
	env.Spawn("coordinator", func(p *sim.Proc) {
		p.Wait(2 * sim.Microsecond)
		task := pl.NewTask(p, pl.Cores[2], &stats.Breakdown{})
		commit := wal.Record{Txn: 7, Type: wal.RecCommit}
		h := e.Append(task, &commit)
		task.Flush()
		done := sim.NewSignal(env)
		e.CommitDurable(h, done)
		done.Await(p)
		// All earlier handles must be durable now.
		for _, prior := range handles {
			if prior > e.Durable() {
				t.Errorf("handle %d not durable at commit ack", prior)
			}
		}
		e.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := wal.Scan(store.Bytes(), 0, func(r wal.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("durable records = %d, want 3", n)
	}
}

func TestNoLatchCheaperThanSoftware(t *testing.T) {
	// The hardware append path must charge materially less CPU than the
	// software log manager for the same record.
	rec := func() wal.Record {
		return wal.Record{Txn: 1, Type: wal.RecInsert, Key: []byte("key"), After: make([]byte, 120)}
	}
	hwCPU := func() sim.Duration {
		env, pl, _, e := fixture()
		bd := &stats.Breakdown{}
		env.Spawn("w", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[0], bd)
			r := rec()
			e.Append(task, &r)
			task.Flush()
			e.Stop()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return bd.Get(stats.CompLog)
	}()
	swCPU := func() sim.Duration {
		env := sim.NewEnv()
		pl := platform.New(env, platform.HC2())
		store := wal.NewStore(pl.SSD)
		m := wal.NewManager(pl, store, wal.DefaultManagerConfig())
		bd := &stats.Breakdown{}
		env.Spawn("w", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[0], bd)
			r := rec()
			m.Append(task, &r)
			task.Flush()
			m.Stop()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return bd.Get(stats.CompLog)
	}()
	if hwCPU >= swCPU {
		t.Fatalf("hardware append CPU %v not below software %v", hwCPU, swCPU)
	}
}

func TestPeriodicSyncWithoutCommit(t *testing.T) {
	env, pl, store, e := fixture()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		rec := wal.Record{Txn: 1, Type: wal.RecInsert, Key: []byte("k"), After: []byte("v")}
		e.Append(task, &rec)
		task.Flush()
		p.Wait(100 * sim.Microsecond) // > SyncInterval
		if store.Durable() == 0 {
			t.Error("periodic sync did not flush")
		}
		e.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Syncs() < 1 {
		t.Fatalf("syncs=%d", e.Syncs())
	}
}

func TestManyWritersNoLatchQueueing(t *testing.T) {
	// Eight cores appending concurrently should see no cross-core stalls:
	// makespan ~= per-core serial cost, not 8x.
	env, pl, _, e := fixture()
	const perCore = 100
	for c := 0; c < 8; c++ {
		c := c
		env.Spawn("w", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[c], &stats.Breakdown{})
			for i := 0; i < perCore; i++ {
				rec := wal.Record{Txn: uint64(c), Type: wal.RecInsert, Key: []byte("key"), After: make([]byte, 100)}
				e.Append(task, &rec)
			}
			task.Flush()
		})
	}
	if err := env.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Appends() != 800 {
		t.Fatalf("appends=%d", e.Appends())
	}
}

func TestEpochIsACut(t *testing.T) {
	// An epoch collects every staging buffer before the daemon spends any
	// core time on it, so a commit is acknowledged only once its bytes are
	// in the store. With six or more sockets a central engine has enough
	// non-empty buffers that charging per buffer inside the collection
	// would park the daemon mid-epoch, and bytes staged into buffers it had
	// already emptied would be counted into the epoch's durable point.
	// Every core runs a committer and a background stager; the stager's
	// pace is what the log device keeps up with on eight sockets.
	const commitsPerCore = 40
	const stagerEvery = 10 * sim.Microsecond
	for _, sockets := range []int{6, 8} {
		env := sim.NewEnv()
		pl := platform.New(env, platform.HC2Scaled(sockets))
		store := wal.NewStore(pl.SSD)
		e := New(pl, store, DefaultConfig())
		committers, commits, early := len(pl.Cores), 0, 0
		for c := range pl.Cores {
			env.Spawn("committer", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[c], nil)
				for i := 0; i < commitsPerCore; i++ {
					id := uint64(c*commitsPerCore + i)
					rec := wal.Record{Txn: id, Type: wal.RecUpdate, Key: []byte("key"), After: make([]byte, 40)}
					e.Append(task, &rec)
					commit := wal.Record{Txn: id, Type: wal.RecCommit}
					h := e.Append(task, &commit)
					task.Flush()
					done := sim.NewSignal(env)
					done.OnFire(func(any) {
						commits++
						if store.Len() < int(h) || int(e.Durable()) > store.Len() {
							early++
						}
					})
					e.CommitDurable(h, done)
					done.Await(p)
				}
				if committers--; committers == 0 {
					e.Stop()
				}
			})
			env.Spawn("stager", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[c], nil)
				for committers > 0 {
					rec := wal.Record{Txn: uint64(c), Type: wal.RecUpdate}
					e.Append(task, &rec)
					task.Block(stagerEvery)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if want := len(pl.Cores) * commitsPerCore; commits != want {
			t.Fatalf("%d sockets: %d commits acknowledged, want %d", sockets, commits, want)
		}
		if early != 0 {
			t.Errorf("%d sockets: %d of %d commits acknowledged before their bytes were in the store", sockets, early, commits)
		}
	}
}
