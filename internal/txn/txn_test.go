package txn

import (
	"bytes"
	"slices"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

func fixture() (*sim.Env, *platform.Platform, *wal.Store, *wal.Manager, *Manager) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	store := wal.NewStore(pl.SSD)
	lm := wal.NewManager(pl, store, wal.DefaultManagerConfig())
	ls := wal.NewLogSet(pl, []wal.LogShard{{App: lm, Store: store}})
	tm := NewManager(env, ls, DefaultConfig())
	return env, pl, store, lm, tm
}

// logTypes returns the types of the records in store, in log order. The
// store must have been registered from 0 before anything was appended.
func logTypes(t *testing.T, store *wal.Store) []wal.RecType {
	t.Helper()
	var types []wal.RecType
	if err := wal.Scan(store.Bytes(), 0, func(r wal.Record) bool {
		types = append(types, r.Type)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

func TestBeginAssignsDistinctIDs(t *testing.T) {
	env, pl, store, lm, tm := fixture()
	store.Register(0) // the test decodes the raw store
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		a := tm.Begin(task)
		b := tm.Begin(task)
		if a.ID == b.ID {
			t.Error("duplicate txn ids")
		}
		if a.State != Active || b.State != Active {
			t.Error("not active")
		}
		task.Flush()
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := logTypes(t, store); !slices.Equal(got, []wal.RecType{wal.RecBegin, wal.RecBegin}) {
		t.Fatalf("log types %v, want two begins", got)
	}
}

func TestCommitBecomesDurableAndLogged(t *testing.T) {
	env, pl, store, lm, tm := fixture()
	store.Register(0) // the test decodes the raw store
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		tx := tm.Begin(task)
		tm.LogInsert(task, tx, 5, []byte("key"), []byte("row"))
		done := tm.Commit(task, tx)
		task.Flush()
		done.Await(p)
		if tx.State != Committed {
			t.Error("state not committed")
		}
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	types := logTypes(t, store)
	want := []wal.RecType{wal.RecBegin, wal.RecInsert, wal.RecCommit}
	if len(types) != len(want) {
		t.Fatalf("log types %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("log types %v, want %v", types, want)
		}
	}
}

func TestAbortAppliesUndoInReverse(t *testing.T) {
	env, pl, store, lm, tm := fixture()
	store.Register(0) // the test decodes the raw store
	var undone []string
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		tx := tm.Begin(task)
		tm.LogInsert(task, tx, 1, []byte("a"), []byte("va"))
		tm.LogUpdate(task, tx, 1, []byte("b"), []byte("old"), []byte("new"))
		tm.LogDelete(task, tx, 1, []byte("c"), []byte("vc"))
		tm.Abort(task, tx, func(u UndoRec) {
			undone = append(undone, string(u.Key))
		})
		if tx.State != Aborted {
			t.Error("state not aborted")
		}
		task.Flush()
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(undone) != 3 || undone[0] != "c" || undone[1] != "b" || undone[2] != "a" {
		t.Fatalf("undo order %v, want reverse", undone)
	}
	if types := logTypes(t, store); len(types) == 0 || types[len(types)-1] != wal.RecAbort {
		t.Fatalf("log types %v, want an abort last", types)
	}
}

func TestUndoCarriesBeforeImages(t *testing.T) {
	env, pl, _, lm, tm := fixture()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		tx := tm.Begin(task)
		tm.LogUpdate(task, tx, 1, []byte("k"), []byte("before-img"), []byte("after-img"))
		tm.Abort(task, tx, func(u UndoRec) {
			if u.Type != wal.RecUpdate || !bytes.Equal(u.Before, []byte("before-img")) {
				t.Errorf("undo rec %+v", u)
			}
		})
		task.Flush()
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOperationsOnFinishedTxnPanic(t *testing.T) {
	env, pl, _, _, tm := fixture()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		tx := tm.Begin(task)
		tm.Commit(task, tx)
		tm.LogInsert(task, tx, 1, []byte("x"), []byte("y")) // must panic
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected panic error")
	}
}

func TestXctComponentCharged(t *testing.T) {
	env, pl, _, lm, tm := fixture()
	bd := &stats.Breakdown{}
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		tx := tm.Begin(task)
		tm.Commit(task, tx)
		task.Flush()
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(stats.CompXct) == 0 {
		t.Fatal("no Xct mgmt time charged")
	}
	if bd.Get(stats.CompLog) == 0 {
		t.Fatal("log records should charge Log mgmt")
	}
}

// TestInterleavedAppendsKeepTheirRecords has two actions of one transaction
// log updates from two cores at once: the log latch is contended, so each
// append parks with its record half-written to the log while the other
// starts its own. The log must hold, per action in order, exactly the records
// a fresh literal per append would have produced, and the manager must not
// have built more records than appends were ever in flight together.
func TestInterleavedAppendsKeepTheirRecords(t *testing.T) {
	env, pl, store, lm, tm := fixture()
	store.Register(0) // the test decodes the raw store
	const per = 40
	img := func(who, i int, what byte) []byte { return []byte{what, byte(who), byte(i), what} }
	var tx *Txn
	finished := 0
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		tx = tm.Begin(task)
		task.Flush()
		for who := 1; who <= 2; who++ {
			who := who
			env.Spawn("action", func(ap *sim.Proc) {
				at := pl.NewTask(ap, pl.Cores[who], nil)
				for i := 0; i < per; i++ {
					tm.LogUpdate(at, tx, uint16(who), img(who, i, 'k'), img(who, i, 'b'), img(who, i, 'a'))
				}
				at.Flush()
				if finished++; finished == 2 {
					lm.Stop()
				}
			})
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	next := map[uint16]int{1: 0, 2: 0}
	switches, last := 0, uint16(0) // changes of action along the log
	err := wal.Scan(store.Bytes(), 0, func(r wal.Record) bool {
		if r.Type != wal.RecUpdate {
			return true
		}
		if last != 0 && r.Table != last {
			switches++
		}
		last = r.Table
		who, i := int(r.Table), next[r.Table]
		next[r.Table]++
		if r.Txn != tx.ID || !bytes.Equal(r.Key, img(who, i, 'k')) ||
			!bytes.Equal(r.Before, img(who, i, 'b')) || !bytes.Equal(r.After, img(who, i, 'a')) {
			t.Errorf("action %d update %d logged as %+v", who, i, r)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next[1] != per || next[2] != per {
		t.Errorf("logged %d and %d updates, want %d each", next[1], next[2], per)
	}
	if switches < 2 {
		t.Error("one action's updates all precede the other's: nothing interleaved")
	}
	if len(tx.Undo) != 2*per {
		t.Errorf("%d undo entries, want %d", len(tx.Undo), 2*per)
	}
	if n := len(tm.recs); n != 2 {
		t.Errorf("%d log records built for two appenders, want 2", n)
	}
}

// TestBeginInReusesTheTxn runs two transactions through one Txn: the second
// starts clean, keeps the first one's storage, and BeginIn refuses a
// transaction that is still active.
func TestBeginInReusesTheTxn(t *testing.T) {
	env, pl, store, lm, tm := fixture()
	store.Register(0) // the test decodes the raw store
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		done := sim.NewSignal(env)
		var tx Txn
		tm.BeginIn(task, &tx)
		first := tx.ID
		tm.LogUpdate(task, &tx, 1, []byte("k"), []byte("b"), []byte("a"))
		func() {
			defer func() {
				if recover() == nil {
					t.Error("BeginIn on an active transaction did not panic")
				}
			}()
			tm.BeginIn(task, &tx)
		}()
		tm.CommitTo(task, &tx, done)
		task.Flush()
		done.Await(p)
		done.Reset()
		undoCap := cap(tx.Undo)
		tm.BeginIn(task, &tx)
		if tx.ID == first || tx.State != Active || len(tx.Undo) != 0 || len(tx.Shards) != 0 {
			t.Errorf("second transaction starts as %+v", tx)
		}
		if cap(tx.Undo) != undoCap || undoCap == 0 {
			t.Errorf("undo storage not kept: cap %d, was %d", cap(tx.Undo), undoCap)
		}
		tm.Abort(task, &tx, func(UndoRec) {})
		task.Flush()
		lm.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []wal.RecType{wal.RecBegin, wal.RecUpdate, wal.RecCommit, wal.RecBegin, wal.RecAbort}
	if got := logTypes(t, store); !slices.Equal(got, want) {
		t.Errorf("log types %v, want %v", got, want)
	}
}
