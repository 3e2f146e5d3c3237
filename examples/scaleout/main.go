// Multi-socket scale-out on the TATP mix: runs the engine family on one
// socket and on a four-socket machine (weak scaling — clients and DORA
// partitions grow with the machine) and prints the scaling table plus the
// energy split of the 4-socket DORA run. On the sharded engines,
// transactions whose partitions all live on the coordinator's socket pay
// nothing new; transactions spanning sockets cross the modeled ring
// interconnect and commit through an RVP-based cross-shard decision round.
// Every number is a pure function of the seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"bionicdb"
)

func main() {
	subscribers := flag.Int("subscribers", 20000, "TATP scale factor")
	measureMs := flag.Int("measure", 15, "measurement window, simulated ms")
	flag.Parse()

	sweep := bionicdb.SweepGrid{
		Sockets: []int{1, 4},
		Engines: []bionicdb.EngineSpec{
			bionicdb.ConventionalSpec(),
			bionicdb.DORASpec(),
			bionicdb.BionicSpec(bionicdb.AllOffloads()),
		},
		Workloads: []bionicdb.WorkloadSpec{
			{Name: "tatp", Make: func(int) bionicdb.Workload {
				return bionicdb.NewTATP(bionicdb.TATPConfig{Subscribers: *subscribers})
			}},
		},
		Terminals: []int{16}, // per socket
		Warmup:    5 * bionicdb.Millisecond,
		Measure:   bionicdb.Duration(*measureMs) * bionicdb.Millisecond,
	}

	points := sweep.Points()
	fmt.Printf("TATP on 1 and 4 sockets: %d runs (weak scaling, %d terminals/socket)...\n\n",
		len(points), sweep.Terminals[0])
	results := bionicdb.Sweep(points, bionicdb.SweepOptions{}) // parallel across GOMAXPROCS workers
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
	}

	fmt.Print(bionicdb.ScalingTable(results).String())

	// The energy split of the 4-socket DORA point: the interconnect domain
	// is what cross-shard traffic costs; everything else is the same
	// machine four times over.
	for _, r := range results {
		if r.Point.Sockets == 4 && r.Point.Engine.Name == "dora" {
			e := r.Res.Energy
			fmt.Printf("\n4-socket dora energy split: %s\n", e.String())
			fmt.Printf("interconnect share: %.2f%% of %.1f mJ\n",
				e.Interconnect/e.Total()*100, e.Total()*1e3)
		}
	}
}
