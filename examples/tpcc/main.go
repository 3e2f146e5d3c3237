// TPC-C engine comparison: the full 45/43/4/4/4 mix on all three engines,
// with the Figure 3 component breakdown printed for each so the shift of
// index/log/queue time off the CPU is visible directly.
package main

import (
	"flag"
	"fmt"

	"bionicdb"
)

func main() {
	warehouses := flag.Int("warehouses", 2, "TPC-C scale factor")
	measureMs := flag.Int("measure", 25, "measurement window, simulated ms")
	flag.Parse()

	wl := bionicdb.NewTPCC(bionicdb.TPCCConfig{
		Warehouses:               *warehouses,
		Districts:                10,
		CustomersPerDistrict:     600,
		Items:                    20000,
		InitialOrdersPerDistrict: 50,
	})
	cfg := bionicdb.RunConfig{
		Terminals: *warehouses * 20,
		Warmup:    bionicdb.Duration(10) * bionicdb.Millisecond,
		Measure:   bionicdb.Duration(*measureMs) * bionicdb.Millisecond,
		Seed:      7,
	}

	engines := []struct {
		name string
		mk   func(env *bionicdb.Env) bionicdb.Engine
	}{
		{"conventional", func(env *bionicdb.Env) bionicdb.Engine {
			return bionicdb.NewConventional(env, bionicdb.HC2(), wl.Tables())
		}},
		{"dora", func(env *bionicdb.Env) bionicdb.Engine {
			return bionicdb.NewDORA(env, bionicdb.HC2(), wl.Tables(), wl.Scheme(8))
		}},
		{"bionic", func(env *bionicdb.Env) bionicdb.Engine {
			return bionicdb.NewBionic(env, bionicdb.HC2(), wl.Tables(), wl.Scheme(8), bionicdb.AllOffloads(), 8)
		}},
	}

	fmt.Printf("TPC-C, %d warehouses, %d terminals, %dms window\n", *warehouses, cfg.Terminals, *measureMs)
	for _, e := range engines {
		res, err := bionicdb.Run(cfg, wl, e.mk)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n=== %s: %.0f tps, %.2f uJ/txn, p95 %v\n",
			res.Engine, res.TPS, res.JoulesPerTxn*1e6, res.Latency.Percentile(95))
		fmt.Printf("    mix:")
		for _, name := range res.TxnNames() {
			fmt.Printf(" %s=%d", name, res.TxnCounts[name])
		}
		fmt.Printf("\n    engine retries:")
		for _, name := range res.TxnNames() {
			fmt.Printf(" %s=%d", name, res.TxnRetries[name])
		}
		fmt.Println()
		for _, line := range bionicdb.BreakdownLines(&res.BD) {
			fmt.Println("    " + line)
		}
	}
}
