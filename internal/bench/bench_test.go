package bench

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

func smallTATP() WorkloadSpec {
	return WorkloadSpec{Name: "tatp", Make: func() core.Workload {
		return tatp.New(tatp.Config{Subscribers: 1000})
	}}
}

func smallYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "ycsb", Make: func() core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return ycsb.New(cfg)
	}}
}

// smallTPCC matters for determinism coverage: TPC-C transactions span
// partitions, which exercises the rollback/lock-release fan-out paths.
func smallTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "tpcc", Make: func() core.Workload {
		return tpcc.New(tpcc.SmallConfig())
	}}
}

// quickTPCC is bionicbench -quick's TPC-C on an n-socket machine: two
// warehouses per socket, the figure generators' weak-scaling unit.
func quickTPCC(n int) WorkloadSpec {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 2 * n
	cfg.CustomersPerDistrict = 600
	cfg.Items = 20000
	return WorkloadSpec{Name: "tpcc", Make: func() core.Workload { return tpcc.New(cfg) }}
}

func smallGrid() Grid {
	return Grid{
		Engines:   []EngineSpec{DORA(4), Bionic(4, core.AllOffloads(), 8)},
		Workloads: []WorkloadSpec{smallTATP(), smallYCSB(), smallTPCC()},
		Terminals: []int{8},
		Seeds:     []uint64{1, 2},
		Warmup:    1 * sim.Millisecond,
		Measure:   3 * sim.Millisecond,
	}
}

// TestPointsExpansion checks the grid cross product, ordering and
// defaulting.
func TestPointsExpansion(t *testing.T) {
	g := smallGrid()
	points := g.Points()
	if len(points) != 3*2*1*2 {
		t.Fatalf("expected 12 points, got %d", len(points))
	}
	// Workload outermost, then engine, then seed.
	if points[0].Workload.Name != "tatp" || points[4].Workload.Name != "ycsb" {
		t.Fatalf("unexpected workload order: %s, %s", points[0].Workload.Name, points[4].Workload.Name)
	}
	if points[0].Seed != 1 || points[1].Seed != 2 {
		t.Fatalf("unexpected seed order: %d, %d", points[0].Seed, points[1].Seed)
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}

	defaulted := Grid{Engines: []EngineSpec{DORA(4)}, Workloads: []WorkloadSpec{smallTATP()}}
	dp := defaulted.Points()
	want := core.DefaultRunConfig()
	if len(dp) != 1 || dp[0].Terminals != want.Terminals || dp[0].Seed != want.Seed ||
		dp[0].Warmup != want.Warmup || dp[0].Measure != want.Measure {
		t.Fatalf("defaults not applied: %+v", dp[0])
	}
}

// TestParallelMatchesSerial is the subsystem's core guarantee: a sweep fanned
// out across workers produces bit-identical measurements to the same grid
// run serially, because every point owns its environment, workload and
// random streams.
func TestParallelMatchesSerial(t *testing.T) {
	g := smallGrid()
	points := g.Points()
	serial := Run(points, Options{Parallel: 1})
	par := Run(points, Options{Parallel: 4})
	if len(serial) != len(par) {
		t.Fatalf("result count mismatch: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("point %d errored: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if s.Res.Engine != p.Res.Engine || s.Res.Workload != p.Res.Workload {
			t.Fatalf("point %d identity mismatch: %s/%s vs %s/%s",
				i, s.Res.Workload, s.Res.Engine, p.Res.Workload, p.Res.Engine)
		}
		if s.Res.Commits != p.Res.Commits || s.Res.Aborts != p.Res.Aborts {
			t.Errorf("point %d commits/aborts diverge: %d/%d vs %d/%d",
				i, s.Res.Commits, s.Res.Aborts, p.Res.Commits, p.Res.Aborts)
		}
		if s.Res.TPS != p.Res.TPS || s.Res.JoulesPerTxn != p.Res.JoulesPerTxn {
			t.Errorf("point %d tps/energy diverge: %v/%v vs %v/%v",
				i, s.Res.TPS, s.Res.JoulesPerTxn, p.Res.TPS, p.Res.JoulesPerTxn)
		}
		if s.Res.BD != p.Res.BD {
			t.Errorf("point %d component breakdown diverges", i)
		}
		if s.Res.Latency.Percentile(50) != p.Res.Latency.Percentile(50) ||
			s.Res.Latency.Percentile(95) != p.Res.Latency.Percentile(95) {
			t.Errorf("point %d latency percentiles diverge", i)
		}
		if !reflect.DeepEqual(s.Res.TxnCounts, p.Res.TxnCounts) {
			t.Errorf("point %d txn counts diverge: %v vs %v", i, s.Res.TxnCounts, p.Res.TxnCounts)
		}
	}
}

// TestYCSBAllEngines smoke-runs the YCSB workload on every engine through
// a grid and checks each run commits work of every requested kind.
func TestYCSBAllEngines(t *testing.T) {
	cfg := ycsb.Config{Records: 2000, ReadPct: 40, UpdatePct: 30, ScanPct: 15, RMWPct: 15, MaxScanLen: 20}
	g := Grid{
		Engines: []EngineSpec{Conventional(), DORA(4), Bionic(4, core.AllOffloads(), 8)},
		Workloads: []WorkloadSpec{{Name: "ycsb", Make: func() core.Workload {
			return ycsb.New(cfg)
		}}},
		Terminals: []int{8},
		Seeds:     []uint64{7},
		Warmup:    1 * sim.Millisecond,
		Measure:   4 * sim.Millisecond,
	}
	for _, r := range g.Run(Options{Parallel: 2}) {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Point.Engine.Name, r.Err)
		}
		if r.Res.Commits == 0 {
			t.Errorf("%s committed nothing", r.Point.Engine.Name)
		}
		for _, op := range []string{"Read", "Update", "Scan", "ReadModifyWrite"} {
			if r.Res.TxnCounts[op] == 0 {
				t.Errorf("%s ran no %s operations", r.Point.Engine.Name, op)
			}
		}
	}
}

// TestForEach checks the pool covers every index exactly once at any
// parallelism, including degenerate sizes.
func TestForEach(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 16} {
		const n = 57
		var hits [n]atomic.Int64
		ForEach(n, parallel, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallel=%d: index %d executed %d times", parallel, i, got)
			}
		}
	}
	ForEach(0, 4, func(i int) { t.Fatal("fn called for empty range") })
}

// TestJSONEmission checks the document shape and that errors carry through.
func TestJSONEmission(t *testing.T) {
	g := Grid{
		Engines:   []EngineSpec{DORA(4)},
		Workloads: []WorkloadSpec{smallYCSB()},
		Terminals: []int{4},
		Seeds:     []uint64{3},
		Warmup:    1 * sim.Millisecond,
		Measure:   2 * sim.Millisecond,
	}
	results := g.Run(Options{Parallel: 1})
	b, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suite   string `json:"suite"`
		Results []struct {
			Name    string  `json:"name"`
			Engine  string  `json:"engine"`
			TPS     float64 `json:"tps"`
			Commits int64   `json:"commits"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if doc.Suite != "bionicbench" || len(doc.Results) != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	jr := doc.Results[0]
	if jr.Name != "ycsb/dora/t4/s3" || jr.Engine != "dora" {
		t.Errorf("unexpected result identity: %+v", jr)
	}
	if jr.Commits != results[0].Res.Commits || jr.TPS != results[0].Res.TPS {
		t.Errorf("JSON numbers diverge from result: %+v vs %+v", jr, results[0].Res)
	}
}

func smallHTAPYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "htap-ycsb", Make: func() core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return htap.NewYCSB(cfg, htap.DefaultParams())
	}}
}

func smallHTAPTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "htap-tpcc", Make: func() core.Workload {
		return htap.NewTPCC(tpcc.SmallConfig(), htap.DefaultParams())
	}}
}
