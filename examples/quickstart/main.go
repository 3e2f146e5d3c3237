// Quickstart: open a bionic database, run a handful of hand-written
// transactions, and print what the simulation measured — throughput is not
// the point here; the transaction API and the energy/latency accounting
// are.
package main

import (
	"fmt"

	"bionicdb"
)

func main() {
	env := bionicdb.NewEnv()

	// One table: id -> greeting. The bionic engine offloads tree probes,
	// logging, queues and the overlay to modelled FPGA units.
	tables := []bionicdb.TableDef{{ID: 1, Name: "greetings", Order: 64}}
	eng := bionicdb.NewBionic(env, bionicdb.HC2(), tables, bionicdb.HashScheme(4), bionicdb.AllOffloads(), 8)

	// Keys are the text "key-0007". A key or row handed to the engine need
	// only stay valid until the transaction attempt that built it ends
	// (whatever keeps it longer copies it: the tree copies the keys and rows
	// it stores), so a transaction builds its keys and rows in the attempt's
	// arena, tx.Arena() in the logic and c.Arena() in an action body: the
	// engine resets and reuses it, and steady-state keys and rows cost no
	// allocation. A nil arena allocates a fresh slice the caller owns.
	key := func(a *bionicdb.Arena, i int) []byte {
		k := a.Alloc(8)
		copy(k, "key-0000")
		for p := 7; i > 0; p, i = p-1, i/10 {
			k[p] = byte('0' + i%10)
		}
		return k
	}

	// A terminal is a simulated client process.
	env.Spawn("client", func(p *bionicdb.Proc) {
		term := &bionicdb.Terminal{ID: 0, P: p, Core: eng.Platform().Cores[0], R: bionicdb.NewRand(1)}

		// Insert fifty rows, one transaction each.
		for i := 0; i < 50; i++ {
			i := i
			committed := eng.Submit(term, func(tx bionicdb.Tx) bool {
				return tx.Phase(bionicdb.Action{Table: 1, Key: key(tx.Arena(), i), Body: func(c bionicdb.AccessCtx) bool {
					row := fmt.Appendf(c.Arena().Alloc(16)[:0], "hello #%d", i)
					return c.Insert(1, key(c.Arena(), i), row)
				}})
			})
			if !committed {
				fmt.Printf("insert %d failed\n", i)
			}
		}

		// A read-modify-write transaction.
		eng.Submit(term, func(tx bionicdb.Tx) bool {
			return tx.Phase(bionicdb.Action{Table: 1, Key: key(tx.Arena(), 7), Body: func(c bionicdb.AccessCtx) bool {
				k := key(c.Arena(), 7)
				v, ok := c.ReadForUpdate(1, k)
				if !ok {
					return false
				}
				// v is the stored row, immutable: build the new row in the
				// arena.
				const suffix = " (updated)"
				row := append(append(c.Arena().Alloc(len(v) + len(suffix))[:0], v...), suffix...)
				return c.Update(1, k, row)
			}})
		})

		// A scan.
		count := 0
		eng.Submit(term, func(tx bionicdb.Tx) bool {
			return tx.Phase(bionicdb.Action{Table: 1, Key: key(tx.Arena(), 0), Body: func(c bionicdb.AccessCtx) bool {
				c.Scan(1, key(c.Arena(), 10), key(c.Arena(), 20), func(k, v []byte) bool {
					count++
					return true
				})
				return true
			}})
		})
		fmt.Printf("scan saw %d rows in [10, 20)\n", count)

		eng.Close()
	})

	if err := env.Run(); err != nil {
		panic(err)
	}

	v, _ := eng.ReadRaw(1, key(nil, 7))
	fmt.Printf("row 7 is now: %q\n", v)
	fmt.Printf("simulated time elapsed: %v\n", env.Now())
	fmt.Printf("commits: %d\n", eng.Counters().Get("commits"))
	fmt.Println("\nCPU time by component (the paper's Figure 3 taxonomy):")
	for _, line := range bionicdb.BreakdownLines(eng.Breakdown()) {
		fmt.Println("  " + line)
	}
}
