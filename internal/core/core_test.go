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

// kvWorkload is a minimal single-table workload for engine correctness
// tests.
type kvWorkload struct{}

func (kvWorkload) Name() string                 { return "kv" }
func (kvWorkload) Tables() []TableDef           { return []TableDef{{ID: 1, Name: "kv", Order: 32}} }
func (kvWorkload) Scheme(n int) PartitionScheme { return HashScheme(n) }
func (kvWorkload) Populate(load func(t uint16, k, v []byte), r *sim.Rand) {
	for i := 0; i < 2000; i++ {
		load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("init-%d", i)))
	}
}
func (kvWorkload) NextTxn(r *sim.Rand) (string, TxnLogic) {
	k := storage.Uint64Key(uint64(r.Intn(2000)))
	v := []byte(fmt.Sprintf("v-%d", r.Intn(1000)))
	return "put", func(tx Tx) bool {
		return tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
			return c.Update(1, k, v)
		}})
	}
}

// engines under test.
func engineFactories(tables []TableDef, scheme PartitionScheme) map[string]func(env *sim.Env) Engine {
	return map[string]func(env *sim.Env) Engine{
		"conventional": func(env *sim.Env) Engine {
			return NewConventional(env, platform.HC2(), tables)
		},
		"dora": func(env *sim.Env) Engine {
			return NewDORA(env, platform.HC2(), tables, scheme)
		},
		"bionic": func(env *sim.Env) Engine {
			return NewBionic(env, platform.HC2(), tables, scheme, AllOffloads(), 8)
		},
	}
}

// runOne drives a single transaction through an engine inside a fresh env.
func runOne(t *testing.T, mk func(env *sim.Env) Engine, setup func(e Engine), logic TxnLogic) (Engine, bool) {
	t.Helper()
	env := sim.NewEnv()
	e := mk(env)
	if setup != nil {
		setup(e)
	}
	var committed bool
	env.Spawn("terminal", func(p *sim.Proc) {
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		committed = e.Submit(term, logic)
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return e, committed
}

func kvTables() []TableDef { return []TableDef{{ID: 1, Name: "kv", Order: 32}} }

func TestSubmitCommitVisibleOnAllEngines(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			key := storage.Uint64Key(7)
			e, committed := runOne(t, mk, nil, func(tx Tx) bool {
				return tx.Phase(Action{Table: 1, Key: key, Body: func(c AccessCtx) bool {
					return c.Insert(1, key, []byte("hello"))
				}})
			})
			if !committed {
				t.Fatal("commit failed")
			}
			if v, ok := e.ReadRaw(1, key); !ok || !bytes.Equal(v, []byte("hello")) {
				t.Fatalf("row not visible: %q %v", v, ok)
			}
		})
	}
}

func TestUserAbortRollsBackOnAllEngines(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			key := storage.Uint64Key(9)
			e, committed := runOne(t, mk, nil, func(tx Tx) bool {
				ok := tx.Phase(Action{Table: 1, Key: key, Body: func(c AccessCtx) bool {
					if !c.Insert(1, key, []byte("doomed")) {
						return false
					}
					return true
				}})
				if !ok {
					return false
				}
				return false // user abort after a successful phase
			})
			if committed {
				t.Fatal("abort reported as commit")
			}
			if _, ok := e.ReadRaw(1, key); ok {
				t.Fatal("aborted insert visible")
			}
			if e.Counters().Get("aborts.user") != 1 {
				t.Fatalf("aborts.user=%d", e.Counters().Get("aborts.user"))
			}
		})
	}
}

// TestAbortedDeleteSurvivesArenaReuse: rollback re-inserts a deleted row under
// the undo entry's key, which lives in the attempt's arena. The tree must own
// its copy: the terminal's next transaction reuses the same arena bytes for
// other keys, and the restored row has to stay where it was.
func TestAbortedDeleteSurvivesArenaReuse(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv()
			e := mk(env)
			for i := uint64(0); i < 50; i++ {
				e.Load(1, storage.Uint64Key(i), []byte(fmt.Sprintf("init-%d", i)))
			}
			// touch runs op on row id with every key built in the arenas.
			touch := func(id uint64, op func(c AccessCtx, key []byte) bool, commit bool) TxnLogic {
				return func(tx Tx) bool {
					ok := tx.Phase(Action{Table: 1, Key: tx.Arena().Uint64Key(id), Body: func(c AccessCtx) bool {
						return op(c, c.Arena().Uint64Key(id))
					}})
					return ok && commit
				}
			}
			env.Spawn("terminal", func(p *sim.Proc) {
				term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
				if e.Submit(term, touch(5, func(c AccessCtx, key []byte) bool { return c.Delete(1, key) }, false)) {
					t.Error("aborted delete reported as commit")
				}
				// Same frame, same arena offsets, other rows.
				for id := uint64(6); id < 10; id++ {
					if !e.Submit(term, touch(id, func(c AccessCtx, key []byte) bool {
						return c.Update(1, key, []byte("updated"))
					}, true)) {
						t.Errorf("update of row %d did not commit", id)
					}
				}
				e.Close()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if v, ok := e.ReadRaw(1, storage.Uint64Key(5)); !ok || string(v) != "init-5" {
				t.Fatalf("row 5 after an aborted delete and arena reuse: %q, found %v", v, ok)
			}
			if err := e.Tables()[1].Validate(); err != nil {
				t.Fatal(err)
			}
			if n := e.Tables()[1].Size(); n != 50 {
				t.Fatalf("%d rows, want 50", n)
			}
		})
	}
}

func TestUpdateRollbackRestoresBeforeImage(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			key := storage.Uint64Key(3)
			setup := func(e Engine) { e.Load(1, key, []byte("original")) }
			e, _ := runOne(t, mk, setup, func(tx Tx) bool {
				tx.Phase(Action{Table: 1, Key: key, Body: func(c AccessCtx) bool {
					return c.Update(1, key, []byte("mutated"))
				}})
				return false // abort
			})
			if v, ok := e.ReadRaw(1, key); !ok || !bytes.Equal(v, []byte("original")) {
				t.Fatalf("rollback failed: %q %v", v, ok)
			}
		})
	}
}

func TestDeleteAndInsertSemantics(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			key := storage.Uint64Key(5)
			setup := func(e Engine) { e.Load(1, key, []byte("row")) }
			e, committed := runOne(t, mk, setup, func(tx Tx) bool {
				return tx.Phase(Action{Table: 1, Key: key, Body: func(c AccessCtx) bool {
					if c.Insert(1, key, []byte("dup")) {
						return false // duplicate insert must fail
					}
					if !c.Delete(1, key) {
						return false
					}
					if c.Delete(1, key) {
						return false // second delete must fail
					}
					return c.Insert(1, key, []byte("fresh"))
				}})
			})
			if !committed {
				t.Fatal("transaction failed")
			}
			if v, _ := e.ReadRaw(1, key); !bytes.Equal(v, []byte("fresh")) {
				t.Fatalf("final value %q", v)
			}
		})
	}
}

func TestMultiPhaseMultiPartition(t *testing.T) {
	// A transaction spanning two partitions with a data-dependent second
	// phase.
	scheme := HashScheme(4)
	for name, mk := range engineFactories(kvTables(), scheme) {
		t.Run(name, func(t *testing.T) {
			k1 := storage.Uint64Key(100)
			k2 := storage.Uint64Key(200)
			setup := func(e Engine) {
				e.Load(1, k1, storage.Uint64Key(200)) // k1 points at k2
				e.Load(1, k2, []byte("target"))
			}
			var indirect []byte
			e, committed := runOne(t, mk, setup, func(tx Tx) bool {
				var next []byte
				if !tx.Phase(Action{Table: 1, Key: k1, Body: func(c AccessCtx) bool {
					v, ok := c.Read(1, k1)
					if !ok {
						return false
					}
					next = append([]byte(nil), v...)
					return true
				}}) {
					return false
				}
				return tx.Phase(Action{Table: 1, Key: next, Body: func(c AccessCtx) bool {
					v, ok := c.Read(1, next)
					if !ok {
						return false
					}
					indirect = append([]byte(nil), v...)
					return c.Update(1, next, []byte("updated"))
				}})
			})
			if !committed {
				t.Fatal("multi-phase txn failed")
			}
			if !bytes.Equal(indirect, []byte("target")) {
				t.Fatalf("read %q via indirection", indirect)
			}
			if v, _ := e.ReadRaw(1, k2); !bytes.Equal(v, []byte("updated")) {
				t.Fatalf("k2 = %q", v)
			}
		})
	}
}

func TestScanThroughEngines(t *testing.T) {
	for name, mk := range engineFactories(kvTables(), HashScheme(4)) {
		t.Run(name, func(t *testing.T) {
			setup := func(e Engine) {
				for i := 0; i < 50; i++ {
					e.Load(1, storage.Uint64Key(uint64(i)), []byte{byte(i)})
				}
			}
			var got []uint64
			_, committed := runOne(t, mk, setup, func(tx Tx) bool {
				return tx.Phase(Action{Table: 1, Key: storage.Uint64Key(10), Body: func(c AccessCtx) bool {
					c.Scan(1, storage.Uint64Key(10), storage.Uint64Key(20), func(k, v []byte) bool {
						got = append(got, storage.DecodeUint64(k))
						return true
					})
					return true
				}})
			})
			if !committed {
				t.Fatal("scan txn failed")
			}
			if len(got) != 10 || got[0] != 10 || got[9] != 19 {
				t.Fatalf("scan got %v", got)
			}
		})
	}
}

func TestHarnessRunProducesMeasurements(t *testing.T) {
	cfg := RunConfig{Terminals: 8, Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 7}
	for name, mk := range engineFactories(kvTables(), HashScheme(8)) {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg, kvWorkload{}, mk)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatal("no commits in measurement window")
			}
			if res.TPS <= 0 {
				t.Fatalf("tps=%v", res.TPS)
			}
			if res.JoulesPerTxn <= 0 {
				t.Fatalf("joules/txn=%v", res.JoulesPerTxn)
			}
			if res.Latency.Count() == 0 {
				t.Fatal("no latencies recorded")
			}
			if res.BD.Total() == 0 {
				t.Fatal("empty breakdown")
			}
			if res.Energy.Window != 10*sim.Millisecond {
				t.Fatalf("window %v", res.Energy.Window)
			}
		})
	}
}

func TestHarnessDeterminism(t *testing.T) {
	cfg := RunConfig{Terminals: 4, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 11}
	run := func() *Result {
		res, err := Run(cfg, kvWorkload{}, func(env *sim.Env) Engine {
			return NewDORA(env, platform.HC2(), kvTables(), HashScheme(4))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Commits != b.Commits || a.TPS != b.TPS {
		t.Fatalf("nondeterministic: %d/%f vs %d/%f", a.Commits, a.TPS, b.Commits, b.TPS)
	}
	if a.BD.Total() != b.BD.Total() {
		t.Fatalf("nondeterministic breakdowns: %v vs %v", a.BD.Total(), b.BD.Total())
	}
}

func TestConventionalChargesLockAndLatchComponents(t *testing.T) {
	cfg := RunConfig{Terminals: 8, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 3}
	res, err := Run(cfg, kvWorkload{}, func(env *sim.Env) Engine {
		return NewConventional(env, platform.HC2(), kvTables())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BD.Get(stats.CompXct) == 0 {
		t.Fatal("conventional run charged no Xct mgmt (locks)")
	}
	if res.BD.Get(stats.CompBpool) == 0 {
		t.Fatal("conventional run charged no Bpool mgmt")
	}
	if res.BD.Get(stats.CompBtree) == 0 {
		t.Fatal("conventional run charged no Btree mgmt")
	}
}

func TestDoraHasNoLockManagerComponent(t *testing.T) {
	// DORA replaces the central lock manager; its Xct charges come only
	// from begin/commit, so Dora component must be present and the engine
	// must report no deadlock retries under a partition-conflict-free
	// workload.
	cfg := RunConfig{Terminals: 8, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 3}
	res, err := Run(cfg, kvWorkload{}, func(env *sim.Env) Engine {
		return NewDORA(env, platform.HC2(), kvTables(), HashScheme(8))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BD.Get(stats.CompDora) == 0 {
		t.Fatal("DORA run charged no Dora component")
	}
}

func TestBionicOffloadAblationConfigsRun(t *testing.T) {
	cfg := RunConfig{Terminals: 8, Warmup: sim.Millisecond, Measure: 4 * sim.Millisecond, Seed: 5}
	for _, off := range []Offloads{
		{Queue: true},
		{Log: true},
		{Overlay: true},
		AllOffloads(),
	} {
		off := off
		t.Run(off.String(), func(t *testing.T) {
			res, err := Run(cfg, kvWorkload{}, func(env *sim.Env) Engine {
				return NewBionic(env, platform.HC2(), kvTables(), HashScheme(8), off, 8)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatalf("offloads %v: no commits", off)
			}
		})
	}
}

// offloadNames maps offload sets to their configuration names. Overlay, the
// tree-probe/overlay unit pair, renders "tree" first and "overlay" last.
var offloadNames = map[Offloads]string{
	{}:                         "none",
	{Log: true}:                "log",
	{Overlay: true}:            "tree+overlay",
	{Log: true, Overlay: true}: "tree+log+overlay",
	AllOffloads():              "tree+log+queue+overlay",
}

func TestOffloadsString(t *testing.T) {
	for off, want := range offloadNames {
		if got := off.String(); got != want {
			t.Errorf("%+v: named %q, want %q", off, got, want)
		}
	}
}

// TestBionicPairsTreeAndOverlay pins that Offloads.Overlay names one unit
// pair: it builds the tree-probe unit and the overlay store it walks, and a
// bionic engine is named for exactly the set it was given.
func TestBionicPairsTreeAndOverlay(t *testing.T) {
	for off, want := range offloadNames {
		env := sim.NewEnv()
		e := NewBionic(env, platform.HC2(), kvTables(), HashScheme(4), off, 8)
		if e.Name() != "bionic["+want+"]" {
			t.Errorf("%+v: engine named %q, want %q", off, e.Name(), "bionic["+want+"]")
		}
		if (e.Overlay() != nil) != off.Overlay {
			t.Errorf("%+v: overlay store %v", off, e.Overlay() != nil)
		}
		env.Close()
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	e := NewDORA(env, platform.HC2(), kvTables(), HashScheme(4))
	for i := 0; i < 500; i++ {
		e.Load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("init-%d", i)))
	}
	var meta CheckpointMeta
	env.Spawn("driver", func(p *sim.Proc) {
		// Sharp checkpoint of the populated state.
		meta = checkpointed(t, p, e)
		// Post-checkpoint transactions: updates, an insert, a delete, and
		// one abort that must NOT survive recovery.
		term := &Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(1)}
		for i := 0; i < 50; i++ {
			k := storage.Uint64Key(uint64(i))
			v := []byte(fmt.Sprintf("updated-%d", i))
			e.Submit(term, func(tx Tx) bool {
				return tx.Phase(Action{Table: 1, Key: k, Body: func(c AccessCtx) bool {
					return c.Update(1, k, v)
				}})
			})
		}
		kNew := storage.Uint64Key(9999)
		e.Submit(term, func(tx Tx) bool {
			return tx.Phase(Action{Table: 1, Key: kNew, Body: func(c AccessCtx) bool {
				return c.Insert(1, kNew, []byte("new-row"))
			}})
		})
		kDel := storage.Uint64Key(400)
		e.Submit(term, func(tx Tx) bool {
			return tx.Phase(Action{Table: 1, Key: kDel, Body: func(c AccessCtx) bool {
				return c.Delete(1, kDel)
			}})
		})
		kAbort := storage.Uint64Key(8888)
		e.Submit(term, func(tx Tx) bool {
			tx.Phase(Action{Table: 1, Key: kAbort, Body: func(c AccessCtx) bool {
				return c.Insert(1, kAbort, []byte("uncommitted"))
			}})
			return false // abort
		})
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	// CRASH: all volatile state is abandoned; only the disk manager and
	// the durable log survive. Recover in a fresh boot.
	trees := boot(t, e, meta, e.LogSet().Datas())
	// Compare recovered contents with the live engine's final state.
	live := e.Tables()[1]
	rec := trees[1]
	if rec.Size() != live.Size() {
		t.Errorf("recovered %d rows, live %d", rec.Size(), live.Size())
	}
	mismatch := 0
	live.Scan(nil, nil, nil, func(k, v []byte) bool {
		got, ok := rec.Get(k, nil)
		if !ok || !bytes.Equal(got, v) {
			mismatch++
		}
		return true
	})
	if mismatch != 0 {
		t.Errorf("%d rows diverged after recovery", mismatch)
	}
	if _, ok := rec.Get(storage.Uint64Key(8888), nil); ok {
		t.Error("aborted insert survived recovery")
	}
	if _, ok := rec.Get(storage.Uint64Key(400), nil); ok {
		t.Error("committed delete survived recovery")
	}
	if v, ok := rec.Get(storage.Uint64Key(9999), nil); !ok || !bytes.Equal(v, []byte("new-row")) {
		t.Error("committed insert lost in recovery")
	}
}

// TestReadForUpdateWaitsForReaders pins what ReadForUpdate means on the
// conventional engine: it asks for the row's write lock, so it waits for a
// transaction that holds the row under a plain Read, where a second plain
// Read would share it. Nobody is a deadlock victim either way.
func TestReadForUpdateWaitsForReaders(t *testing.T) {
	key := storage.Uint64Key(7)
	for _, c := range []struct {
		name  string
		read  func(c AccessCtx) ([]byte, bool)
		waits bool
	}{
		{"Read", func(c AccessCtx) ([]byte, bool) { return c.Read(1, key) }, false},
		{"ReadForUpdate", func(c AccessCtx) ([]byte, bool) { return c.ReadForUpdate(1, key) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			e := NewConventional(env, platform.HC2(), kvTables())
			e.Load(1, key, []byte("init"))
			var readerDone, secondRead sim.Time
			spawn := func(id int, logic func(p *sim.Proc) TxnLogic) {
				env.Spawn("terminal", func(p *sim.Proc) {
					term := &Terminal{ID: id, P: p, Core: e.Platform().Cores[id], R: sim.NewRand(1)}
					if !e.Submit(term, logic(p)) {
						t.Errorf("terminal %d did not commit", id)
					}
				})
			}
			spawn(0, func(p *sim.Proc) TxnLogic {
				return func(tx Tx) bool {
					return tx.Phase(Action{Table: 1, Key: key, Body: func(c AccessCtx) bool {
						_, ok := c.Read(1, key)
						p.Wait(100 * sim.Microsecond) // hold S while the other arrives
						readerDone = p.Now()
						return ok
					}})
				}
			})
			spawn(1, func(p *sim.Proc) TxnLogic {
				return func(tx Tx) bool {
					return tx.Phase(Action{Table: 1, Key: key, Body: func(ctx AccessCtx) bool {
						p.Wait(20 * sim.Microsecond)
						_, ok := c.read(ctx)
						secondRead = p.Now()
						return ok && ctx.Update(1, key, []byte("new"))
					}})
				}
			})
			if err := env.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
			e.Close()
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if waited := secondRead >= readerDone; waited != c.waits {
				t.Errorf("second %s returned at %v, the S holder finished at %v: waited = %v, want %v",
					c.name, secondRead, readerDone, waited, c.waits)
			}
			if n := e.Counters().Get("aborts.deadlock"); n != 0 {
				t.Errorf("%d deadlock aborts, want 0", n)
			}
			if v, _ := e.ReadRaw(1, key); string(v) != "new" {
				t.Errorf("row = %q, want the second transaction's update", v)
			}
		})
	}
}
