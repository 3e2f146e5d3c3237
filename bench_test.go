// Benchmarks regenerating every figure and quantified claim of the paper,
// one bench per artifact (see DESIGN.md's experiment index). Simulated
// quantities — throughput, joules/txn, latency — are attached to each bench
// via ReportMetric, so `go test -bench=. -benchmem` doubles as the
// experiment harness. cmd/bionicbench prints the same experiments as
// tables.
package bionicdb_test

import (
	"fmt"
	"testing"

	"bionicdb/internal/bench"
	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/darksilicon"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// benchRunConfig keeps simulation windows small enough for bench iterations.
func benchRunConfig() core.RunConfig {
	return core.RunConfig{
		Terminals: 64,
		Warmup:    5 * sim.Millisecond,
		Measure:   15 * sim.Millisecond,
		Seed:      42,
	}
}

func benchTATP() *tatp.Workload { return tatp.New(tatp.Config{Subscribers: 20000}) }

func benchTPCC() *tpcc.Workload {
	return tpcc.New(tpcc.Config{
		Warehouses: 2, Districts: 10, CustomersPerDistrict: 600,
		Items: 20000, InitialOrdersPerDistrict: 50,
	})
}

func reportRun(b *testing.B, res *core.Result) {
	b.ReportMetric(res.TPS, "tps")
	b.ReportMetric(res.JoulesPerTxn*1e6, "uJ/txn")
	b.ReportMetric(res.Latency.Percentile(95).Microseconds(), "p95-us")
}

// BenchmarkFig1DarkSilicon regenerates the Figure 1 utilization surfaces.
func BenchmarkFig1DarkSilicon(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, p := range darksilicon.Figure1Panels() {
			for n := 1; n <= p.Cores; n *= 2 {
				for _, s := range darksilicon.SerialFractions() {
					sink += darksilicon.PanelUtilization(darksilicon.Panel{Cores: n, PowerCap: p.PowerCap}, s)
				}
			}
		}
	}
	// Attach the paper's two headline points.
	b.ReportMetric(darksilicon.Utilization(0.001, 64)*100, "util64@0.1%")
	b.ReportMetric(darksilicon.Utilization(0.001, 1024)*100, "util1024@0.1%")
	_ = sink
}

// BenchmarkFig2Platform characterizes every Figure 2 component.
func BenchmarkFig2Platform(b *testing.B) {
	var rows []platform.CharRow
	for i := 0; i < b.N; i++ {
		rows = platform.Characterize(platform.HC2())
	}
	for _, r := range rows {
		if r.Name == "sg-dram" {
			b.ReportMetric(r.MeasGBps, "sgdram-GBps")
			b.ReportMetric(r.MeasLat.Nanoseconds(), "sgdram-ns")
		}
	}
}

// BenchmarkFig3Breakdown measures the DORA software breakdown for the two
// Figure 3 workloads and reports the headline shares.
func BenchmarkFig3Breakdown(b *testing.B) {
	cases := []struct {
		name string
		wl   core.Workload
	}{
		{"TATPUpdSubData", benchTATP().UpdateSubDataOnly()},
		{"TPCCStockLevel", benchTPCC().StockLevelOnly()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Run(benchRunConfig(), c.wl, func(env *sim.Env) core.Engine {
					return core.NewDORA(env, platform.HC2(), c.wl.Tables(), c.wl.Scheme(8))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, comp := range []struct {
				name string
				c    stats.Component
			}{
				{"btree%", stats.CompBtree}, {"log%", stats.CompLog},
				{"bpool%", stats.CompBpool}, {"dora%", stats.CompDora},
			} {
				b.ReportMetric(res.BD.Fraction(comp.c)*100, comp.name)
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkFig4Engines runs the full engine comparison on both mixes.
func BenchmarkFig4Engines(b *testing.B) {
	type factory struct {
		name string
		mk   func(wl core.Workload) func(env *sim.Env) core.Engine
	}
	factories := []factory{
		{"conventional", func(wl core.Workload) func(env *sim.Env) core.Engine {
			return func(env *sim.Env) core.Engine {
				return core.NewConventional(env, platform.HC2(), wl.Tables())
			}
		}},
		{"dora", func(wl core.Workload) func(env *sim.Env) core.Engine {
			return func(env *sim.Env) core.Engine {
				return core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(8))
			}
		}},
		{"bionic", func(wl core.Workload) func(env *sim.Env) core.Engine {
			return func(env *sim.Env) core.Engine {
				return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
			}
		}},
	}
	workloads := []core.Workload{benchTATP(), benchTPCC()}
	for _, wl := range workloads {
		for _, f := range factories {
			wl, f := wl, f
			cfg := benchRunConfig()
			if wl.Name() == "tpcc" {
				cfg.Terminals = 40 // 2x the spec's 10 per warehouse at W=2
			}
			b.Run(fmt.Sprintf("%s/%s", wl.Name(), f.name), func(b *testing.B) {
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.Run(cfg, wl, f.mk(wl))
					if err != nil {
						b.Fatal(err)
					}
				}
				reportRun(b, res)
			})
		}
	}
}

// BenchmarkC1ProbeSaturation sweeps the probe engine's outstanding-request
// window — §5.3's "saturate using only perhaps a dozen outstanding
// requests".
func BenchmarkC1ProbeSaturation(b *testing.B) {
	for _, window := range []int{1, 4, 12, 24} {
		window := window
		b.Run(fmt.Sprintf("outstanding-%d", window), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				env := sim.NewEnv()
				pl := platform.New(env, platform.HC2())
				eng := treeprobe.New(pl, treeprobe.DefaultConfig())
				tree := btree.New(btree.Config{
					AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocFPGA(8 << 10) },
				})
				for k := 0; k < 50000; k++ {
					tree.Put(storage.Uint64Key(uint64(k)), []byte("row"), nil)
				}
				r := sim.NewRand(1)
				done := 0
				for w := 0; w < window; w++ {
					keys := make([][]byte, 300)
					for j := range keys {
						keys[j] = storage.Uint64Key(uint64(r.Intn(50000)))
					}
					env.Spawn("stream", func(p *sim.Proc) {
						for _, k := range keys {
							eng.ProbeLocal(p, tree, k)
							done++
						}
					})
				}
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
				tput = sim.PerSecond(int64(done), sim.Duration(env.Now()))
			}
			b.ReportMetric(tput/1e6, "Mprobes/s")
		})
	}
}

// BenchmarkC2Ablation sweeps the offload lattice on the TATP mix.
func BenchmarkC2Ablation(b *testing.B) {
	wl := benchTATP()
	for _, off := range []core.Offloads{
		{},
		{Queue: true},
		{Log: true},
		{Queue: true, Log: true},
		{Tree: true, Overlay: true},
		core.AllOffloads(),
	} {
		off := off
		b.Run(off.String(), func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Run(benchRunConfig(), wl, func(env *sim.Env) core.Engine {
					return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), off, 8)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkYCSBSweep fans the YCSB Workload A grid (three engines) out
// through the internal/bench pool and reports the bionic headline numbers —
// the workload-diversity experiment behind the sweep subsystem.
func BenchmarkYCSBSweep(b *testing.B) {
	grid := bench.Grid{
		Engines: []bench.EngineSpec{
			bench.Conventional(),
			bench.DORA(),
			bench.Bionic(core.AllOffloads()),
		},
		Workloads: []bench.WorkloadSpec{{Name: "ycsb", Make: func(int) core.Workload {
			cfg := ycsb.WorkloadA()
			cfg.Records = 20000
			return ycsb.New(cfg)
		}}},
		Terminals: []int{64},
		Seeds:     []uint64{42},
		Warmup:    5 * sim.Millisecond,
		Measure:   15 * sim.Millisecond,
	}
	var results []bench.Result
	for i := 0; i < b.N; i++ {
		results = grid.Run(bench.Options{})
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	reportRun(b, results[len(results)-1].Res) // bionic row
	b.ReportMetric(results[len(results)-1].Res.TPS/results[0].Res.TPS, "tps-vs-conv")
}

// BenchmarkC4LatencyShape contrasts DORA and bionic latency distributions:
// the paper predicts throughput and energy improve even when individual
// requests take as long or longer (§3).
func BenchmarkC4LatencyShape(b *testing.B) {
	wl := benchTATP()
	run := func(mk func(env *sim.Env) core.Engine) *core.Result {
		res, err := core.Run(benchRunConfig(), wl, mk)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var dora, bionic *core.Result
	for i := 0; i < b.N; i++ {
		dora = run(func(env *sim.Env) core.Engine {
			return core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(8))
		})
		bionic = run(func(env *sim.Env) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
		})
	}
	b.ReportMetric(dora.Latency.Percentile(50).Microseconds(), "dora-p50-us")
	b.ReportMetric(bionic.Latency.Percentile(50).Microseconds(), "bionic-p50-us")
	b.ReportMetric(dora.JoulesPerTxn/bionic.JoulesPerTxn, "energy-gain")
	b.ReportMetric(bionic.TPS/dora.TPS, "tps-gain")
}

// BenchmarkFigScaling runs the multi-socket weak-scaling experiment at its
// 1- and 4-socket corners on the TATP mix and reports the sharded engine's
// speedup (fig-scaling's headline quantity; `bionicbench -fig-scaling`
// prints the full 1 -> 16 socket table).
func BenchmarkFigScaling(b *testing.B) {
	spec := bench.Grid{
		Sockets: []int{1, 4},
		Workloads: []bench.WorkloadSpec{
			{Name: "tatp", Make: func(int) core.Workload { return benchTATP() }},
		},
		Engines:   bench.Engines()[1:], // dora + bionic
		Terminals: []int{16},
		Warmup:    5 * sim.Millisecond,
		Measure:   15 * sim.Millisecond,
	}
	var results []bench.Result
	for i := 0; i < b.N; i++ {
		results = spec.Run(bench.Options{})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	// Grid order: (1,dora) (1,bionic) (4,dora) (4,bionic).
	reportRun(b, results[2].Res) // 4-socket dora row
	b.ReportMetric(results[2].Res.TPS/results[0].Res.TPS, "dora-speedup-4s")
	b.ReportMetric(results[3].Res.TPS/results[1].Res.TPS, "bionic-speedup-4s")
}
