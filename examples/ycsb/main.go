// YCSB on the engine family via the sweep API: declare a grid of the
// three engines against two YCSB mixes, fan it out across a worker pool,
// and print the table plus the structured JSON the grid emits. Parallel
// sweep results are bit-identical to serial ones — each point runs in its
// own simulation environment.
package main

import (
	"fmt"
	"os"

	"bionicdb"
)

func main() {
	workload := func(name string, cfg bionicdb.YCSBConfig) bionicdb.WorkloadSpec {
		cfg.Records = 20000
		return bionicdb.WorkloadSpec{Name: name, Make: func(int) bionicdb.Workload {
			return bionicdb.NewYCSB(cfg)
		}}
	}

	grid := bionicdb.SweepGrid{
		Engines: []bionicdb.EngineSpec{
			bionicdb.ConventionalSpec(),
			bionicdb.DORASpec(),
			bionicdb.BionicSpec(bionicdb.AllOffloads()),
		},
		Workloads: []bionicdb.WorkloadSpec{
			workload("ycsb-a", bionicdb.YCSBWorkloadA()),
			workload("ycsb-b", bionicdb.YCSBWorkloadB()),
		},
		Terminals: []int{32},
		Seeds:     []uint64{42},
		Warmup:    5 * bionicdb.Millisecond,
		Measure:   15 * bionicdb.Millisecond,
	}

	points := grid.Points()
	fmt.Printf("sweeping %d grid points...\n\n", len(points))
	results := bionicdb.Sweep(points, bionicdb.SweepOptions{}) // Parallel 0 = GOMAXPROCS

	fmt.Print(bionicdb.SweepTable(results).String())

	doc, err := bionicdb.SweepDoc{Results: results[:1]}.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nfirst result as JSON:\n%s\n", doc)
}
