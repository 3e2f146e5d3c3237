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

	key := func(i int) []byte {
		return []byte(fmt.Sprintf("key-%04d", i))
	}

	// A terminal is a simulated client process.
	env.Spawn("client", func(p *bionicdb.Proc) {
		term := &bionicdb.Terminal{ID: 0, P: p, Core: eng.Platform().Cores[0], R: bionicdb.NewRand(1)}

		// Insert fifty rows, one transaction each.
		for i := 0; i < 50; i++ {
			i := i
			committed := eng.Submit(term, func(tx bionicdb.Tx) bool {
				return tx.Phase(bionicdb.Action{Table: 1, Key: key(i), Body: func(c bionicdb.AccessCtx) bool {
					return c.Insert(1, key(i), []byte(fmt.Sprintf("hello #%d", i)))
				}})
			})
			if !committed {
				fmt.Printf("insert %d failed\n", i)
			}
		}

		// A read-modify-write transaction.
		eng.Submit(term, func(tx bionicdb.Tx) bool {
			return tx.Phase(bionicdb.Action{Table: 1, Key: key(7), Body: func(c bionicdb.AccessCtx) bool {
				v, ok := c.ReadForUpdate(1, key(7))
				if !ok {
					return false
				}
				return c.Update(1, key(7), append(v, []byte(" (updated)")...))
			}})
		})

		// A scan.
		count := 0
		eng.Submit(term, func(tx bionicdb.Tx) bool {
			return tx.Phase(bionicdb.Action{Table: 1, Key: key(0), Body: func(c bionicdb.AccessCtx) bool {
				c.Scan(1, key(10), key(20), func(k, v []byte) bool {
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

	v, _ := eng.ReadRaw(1, key(7))
	fmt.Printf("row 7 is now: %q\n", v)
	fmt.Printf("simulated time elapsed: %v\n", env.Now())
	fmt.Printf("commits: %d\n", eng.Counters().Get("commits"))
	fmt.Println("\nCPU time by component (the paper's Figure 3 taxonomy):")
	for _, line := range bionicdb.BreakdownLines(eng.Breakdown()) {
		fmt.Println("  " + line)
	}
}
