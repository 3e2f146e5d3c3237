package core_test

import (
	"fmt"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// gapKV is one table populated on the even keys of a keyspace twice its
// size, driven by blind single-row writes that ignore the row state: an
// update or delete of an odd key misses, and an insert of an even key
// collides. No workload proper issues those (their writes follow a read), so
// this one covers the row store's miss paths — the accidental insert a
// missed update leaves behind and undoes, the collided insert's restore —
// plus write-then-abort rollbacks.
type gapKV struct{}

const gapKeys = 4000

func (gapKV) Name() string                      { return "gapkv" }
func (gapKV) Tables() []core.TableDef           { return []core.TableDef{{ID: 1, Name: "kv", Order: 32}} }
func (gapKV) Scheme(n int) core.PartitionScheme { return core.HashScheme(n) }
func (gapKV) Populate(load func(uint16, []byte, []byte), r *sim.Rand) {
	for i := 0; i < gapKeys; i += 2 {
		load(1, storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("init-%d", i)))
	}
}

func (gapKV) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	id, op := uint64(r.Intn(gapKeys)), r.Intn(4)
	val := []byte(fmt.Sprintf("v-%d", r.Intn(1000)))
	return "op", func(tx core.Tx) bool {
		key := tx.Arena().Uint64Key(id)
		return tx.Phase(core.Action{Table: 1, Key: key, Body: func(c core.AccessCtx) bool {
			switch op {
			case 0:
				c.Update(1, key, val)
			case 1:
				c.Insert(1, key, val)
			case 2:
				c.Delete(1, key)
			default:
				c.Update(1, key, val)
				return false // roll the write back
			}
			return true
		}}) && op != 3
	}
}

// agreeTxns is how many transactions the one terminal submits per run.
const agreeTxns = 3000

// runOneTerminal populates wl on the engine mk builds, submits agreeTxns
// transactions from one terminal on the session's first terminal stream, and
// returns the database's content digest and the engine's commit count.
func runOneTerminal(t *testing.T, wl core.Workload, mk func(*sim.Env) core.Engine) (string, int64) {
	t.Helper()
	s := core.Open(wl, 42, mk)
	defer s.Close()
	pl := s.Eng.Platform()
	r := s.Split()
	done := false
	s.Env.Spawn("terminal0", func(p *sim.Proc) {
		term := &core.Terminal{P: p, Core: pl.Cores[0], R: r}
		for i := 0; i < agreeTxns; i++ {
			_, logic := wl.NextTxn(term.R)
			s.Eng.Submit(term, logic)
		}
		done = true
	})
	// Engine daemons tick forever: step the clock until the terminal is done.
	for !done {
		if err := s.RunTo(s.Env.Now() + sim.Time(10*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	return core.ContentDigest(s.Eng.Tables()), s.Eng.Counters().Get("commits")
}

// TestEnginesAgreeOneTerminal is the engines' data-path equivalence check.
// With one terminal there is no concurrency, so no engine-induced abort: the
// same seed issues the same transactions in the same order on every engine,
// and every engine must leave the same rows behind and commit the same
// transactions. TPC-C covers inserts, deletes and user-abort rollbacks; YCSB
// covers scans and read-modify-writes; gapKV covers writes that miss. The
// engines cover both row-store backends (host trees and the overlay) and
// both log paths.
func TestEnginesAgreeOneTerminal(t *testing.T) {
	ycfg := ycsb.WorkloadA()
	ycfg.Records = 2000
	ycfg.ReadPct, ycfg.UpdatePct, ycfg.ScanPct, ycfg.RMWPct = 40, 30, 10, 20
	ycfg.MaxScanLen = 20
	workloads := []func() core.Workload{
		func() core.Workload { return tpcc.New(tpcc.SmallConfig()) },
		func() core.Workload { return tatp.New(tatp.Config{Subscribers: 2000}) },
		func() core.Workload { return ycsb.New(ycfg) },
		func() core.Workload { return gapKV{} },
	}
	engines := []func(env *sim.Env, wl core.Workload) core.Engine{
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewConventional(env, platform.HC2(), wl.Tables())
		},
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(8))
		},
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
		},
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.Offloads{Log: true, Queue: true}, 8)
		},
	}
	for _, mkWl := range workloads {
		name := mkWl().Name()
		var want string
		var wantCommits int64
		for i, mkEng := range engines {
			wl := mkWl()
			var engName string
			got, commits := runOneTerminal(t, wl, func(env *sim.Env) core.Engine {
				eng := mkEng(env, wl)
				engName = eng.Name()
				return eng
			})
			if commits == 0 {
				t.Errorf("%s on %s committed nothing", name, engName)
			}
			if i == 0 {
				want, wantCommits = got, commits
				t.Logf("%s: %d commits, content %s", name, commits, got)
				continue
			}
			if got != want {
				t.Errorf("%s on %s: content %s, conventional left %s", name, engName, got, want)
			}
			if commits != wantCommits {
				t.Errorf("%s on %s: %d commits, conventional committed %d", name, engName, commits, wantCommits)
			}
		}
	}
}
