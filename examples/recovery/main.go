// Crash recovery: run transactions on the bionic engine, take a sharp
// checkpoint, run more transactions, then "crash" — discard every volatile
// structure — and boot a fresh machine from the checkpoint images plus the
// durable log (Figure 4 keeps "log sync & recovery" in software). Committed
// effects must survive; the uncommitted insert must not.
package main

import (
	"bytes"
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

func main() {
	env := sim.NewEnv()
	tables := []core.TableDef{{ID: 1, Name: "ledger", Order: 64}}
	eng := core.NewBionic(env, platform.HC2(), tables, core.HashScheme(4), core.AllOffloads(), 8)

	key := func(i int) []byte { return storage.Uint64Key(uint64(i)) }
	val := func(s string) []byte { return []byte(s) }

	var load storage.Arena // the tree copies the keys and rows it keeps
	for i := 0; i < 1000; i++ {
		load.Reset()
		eng.Load(1, load.Uint64Key(uint64(i)), fmt.Appendf(load.Alloc(16)[:0], "opening-%d", i))
	}

	var meta core.CheckpointMeta
	env.Spawn("driver", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: eng.Platform().Cores[0], R: sim.NewRand(1)}

		var err error
		if meta, err = core.Checkpoint(p, eng.Tables(), eng.DiskManager(), eng.LogSet()); err != nil {
			panic(err)
		}
		fmt.Printf("checkpoint complete at %v (log position %d)\n", p.Now(), meta.StartLSNs[0])

		// Post-checkpoint work that only the log protects.
		for i := 0; i < 100; i++ {
			i := i
			eng.Submit(term, func(tx core.Tx) bool {
				return tx.Phase(core.Action{Table: 1, Key: key(i), Body: func(c core.AccessCtx) bool {
					return c.Update(1, key(i), val(fmt.Sprintf("updated-%d", i)))
				}})
			})
		}
		eng.Submit(term, func(tx core.Tx) bool {
			return tx.Phase(core.Action{Table: 1, Key: key(5000), Body: func(c core.AccessCtx) bool {
				return c.Insert(1, key(5000), val("committed-insert"))
			}})
		})
		// This one aborts: its insert must not survive recovery.
		eng.Submit(term, func(tx core.Tx) bool {
			tx.Phase(core.Action{Table: 1, Key: key(6000), Body: func(c core.AccessCtx) bool {
				return c.Insert(1, key(6000), val("doomed"))
			}})
			return false
		})
		fmt.Printf("ran 102 post-checkpoint transactions (1 aborted) by %v\n", p.Now())
		eng.Close()
	})
	if err := env.Run(); err != nil {
		panic(err)
	}

	fmt.Println("\n*** CRASH: volatile state discarded; rebooting from disk + log ***")

	// What survives: the checkpoint pages and the durable log bytes.
	img := core.Image{Cfg: eng.Platform().Cfg, Defs: tables, Meta: meta,
		DM: eng.DiskManager(), Logs: eng.LogSet().Datas()}
	trees, st, _, err := core.Boot(img, img.Logs, false, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovery replayed the log in %v of simulated time\n", st.SimTime)

	rec := trees[1]
	live := eng.Tables()[1]
	mismatches := 0
	live.Scan(nil, nil, nil, func(k, v []byte) bool {
		got, ok := rec.Get(k, nil)
		if !ok || !bytes.Equal(got, v) {
			mismatches++
		}
		return true
	})
	fmt.Printf("recovered %d rows; %d mismatches vs pre-crash state\n", rec.Size(), mismatches)
	if v, ok := rec.Get(key(42), nil); ok {
		fmt.Printf("row 42: %q (committed update survived)\n", v)
	}
	if _, ok := rec.Get(key(6000), nil); !ok {
		fmt.Println("row 6000 absent (aborted insert correctly not replayed)")
	}
}
