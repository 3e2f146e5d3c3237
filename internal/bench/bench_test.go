package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

func smallTATP() WorkloadSpec {
	return WorkloadSpec{Name: "tatp", Make: func(int) core.Workload {
		return tatp.New(tatp.Config{Subscribers: 1000})
	}}
}

func smallYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "ycsb", Make: func(int) core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return ycsb.New(cfg)
	}}
}

// smallTPCC matters for determinism coverage: TPC-C transactions span
// partitions, which exercises the rollback/lock-release fan-out paths.
func smallTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "tpcc", Make: func(int) core.Workload {
		return tpcc.New(tpcc.SmallConfig())
	}}
}

// quickTPCC is bionicbench -quick's TPC-C: two warehouses per socket, the
// figure generators' weak-scaling unit.
func quickTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "tpcc", Make: func(sockets int) core.Workload {
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses = 2 * sockets
		cfg.CustomersPerDistrict = 600
		cfg.Items = 20000
		return tpcc.New(cfg)
	}}
}

func smallGrid() Grid {
	return Grid{
		Engines:             []EngineSpec{DORA(), Bionic(core.AllOffloads())},
		Workloads:           []WorkloadSpec{smallTATP(), smallYCSB(), smallTPCC()},
		Terminals:           []int{8},
		PartitionsPerSocket: 4,
		Seeds:               []uint64{1, 2},
		Warmup:              1 * sim.Millisecond,
		Measure:             3 * sim.Millisecond,
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

	defaulted := Grid{Engines: []EngineSpec{DORA()}, Workloads: []WorkloadSpec{smallTATP()}}
	dp := defaulted.Points()
	want := core.DefaultRunConfig()
	if len(dp) != 1 || dp[0].Terminals != want.Terminals || dp[0].Seed != want.Seed ||
		dp[0].Warmup != want.Warmup || dp[0].Measure != want.Measure ||
		dp[0].Sockets != 0 || dp[0].Partitions != 0 {
		t.Fatalf("defaults not applied: %+v", dp[0])
	}
}

// TestPointMachine pins the one source of truth for a point's machine: the
// config Point.Run hands the engine has exactly the socket count, log
// layout and replication the point states.
func TestPointMachine(t *testing.T) {
	var got *platform.Config
	capture := Conventional()
	mk := capture.Make
	capture.Make = func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine {
		got = cfg
		return mk(env, cfg, wl, partitions)
	}
	for _, sharded := range []bool{false, true} {
		for _, repl := range []stats.ReplMode{stats.ReplNone, stats.ReplSync} {
			g := Grid{
				Engines:    []EngineSpec{capture},
				Workloads:  []WorkloadSpec{smallTATP()},
				Sockets:    []int{1, 2, 4},
				Terminals:  []int{1},
				ShardedLog: sharded,
				Repl:       repl,
				Replicas:   2,
				Warmup:     100 * sim.Microsecond,
				Measure:    100 * sim.Microsecond,
			}
			for _, p := range g.Points() {
				if r := p.Run(); r.Err != nil {
					t.Fatalf("x%d sharded=%v %v: %v", p.Sockets, sharded, repl, r.Err)
				}
				if got.NumSockets() != p.Sockets || got.ShardedLog() != p.ShardedLog ||
					got.ReplMode != p.Repl || got.Replicas != p.Replicas {
					t.Errorf("point x%d sharded=%v %v/%d ran on sockets=%d sharded=%v %v/%d",
						p.Sockets, p.ShardedLog, p.Repl, p.Replicas,
						got.NumSockets(), got.ShardedLog(), got.ReplMode, got.Replicas)
				}
				if want := sharded && p.Sockets > 1; p.ShardedLog != want {
					t.Errorf("x%d: ShardedLog=%v, want %v", p.Sockets, p.ShardedLog, want)
				}
				wantReplicas := 0
				if repl != stats.ReplNone {
					wantReplicas = 2
				}
				if p.Replicas != wantReplicas {
					t.Errorf("x%d %v: %d replicas, want %d", p.Sockets, repl, p.Replicas, wantReplicas)
				}
			}
		}
	}
}

// TestHTAPPointNeedsAnalytics pins that an HTAP point over a workload with
// no analytical half errors instead of running (and hashing) as pure OLTP.
func TestHTAPPointNeedsAnalytics(t *testing.T) {
	g := Grid{
		Engines:   []EngineSpec{Conventional()},
		Workloads: []WorkloadSpec{smallTATP()},
		HTAP:      true,
		Warmup:    100 * sim.Microsecond,
		Measure:   100 * sim.Microsecond,
	}
	for _, r := range g.Run(Options{Parallel: 1}) {
		if r.Err == nil || r.Res != nil {
			t.Errorf("HTAP point over %s ran without an analytical half: err=%v", r.Point.Workload.Name, r.Err)
		}
	}
}

// TestNegativeTerminalsIsAnError: a point with a negative terminal count (a
// negative TPC-C warehouse count times 20, say) errors naming the point
// instead of running no terminal and reporting 0 tps.
func TestNegativeTerminalsIsAnError(t *testing.T) {
	g := Grid{
		Engines:   []EngineSpec{DORA()},
		Workloads: []WorkloadSpec{smallTATP()},
		Terminals: []int{-20},
		Warmup:    100 * sim.Microsecond,
		Measure:   100 * sim.Microsecond,
	}
	for _, r := range g.Run(Options{Parallel: 1}) {
		if r.Err == nil || r.Res != nil || !strings.Contains(r.Err.Error(), "tatp/dora: -20 terminals") {
			t.Errorf("point with -20 terminals: err=%v", r.Err)
		}
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
		Engines: []EngineSpec{Conventional(), DORA(), Bionic(core.AllOffloads())},
		Workloads: []WorkloadSpec{{Name: "ycsb", Make: func(int) core.Workload {
			return ycsb.New(cfg)
		}}},
		Terminals:           []int{8},
		PartitionsPerSocket: 4,
		Seeds:               []uint64{7},
		Warmup:              1 * sim.Millisecond,
		Measure:             4 * sim.Millisecond,
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

// TestJSONEmission checks the results section's shape and numbers.
func TestJSONEmission(t *testing.T) {
	g := Grid{
		Engines:             []EngineSpec{DORA()},
		Workloads:           []WorkloadSpec{smallYCSB()},
		Terminals:           []int{4},
		PartitionsPerSocket: 4,
		Seeds:               []uint64{3},
		Warmup:              1 * sim.Millisecond,
		Measure:             2 * sim.Millisecond,
	}
	results := g.Run(Options{Parallel: 1})
	b, err := Doc{Results: results}.JSON()
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

// TestDocSections pins the one result document: all three sections
// round-trip, an empty section is omitted, and the same grid run twice
// writes byte-identical files (the document holds no host-clock field).
func TestDocSections(t *testing.T) {
	g := Grid{
		Group:     "doc",
		Engines:   []EngineSpec{DORA()},
		Workloads: []WorkloadSpec{smallTATP()},
		Terminals: []int{2},
		Warmup:    100 * sim.Microsecond,
		Measure:   200 * sim.Microsecond,
	}
	full := Doc{
		Results:  g.Run(Options{Parallel: 1}),
		Recovery: []RecoveryResult{{Sockets: 2, Shards: 2, ShardedLog: true, Engine: "dora", Workload: "tpcc", Txns: 7}},
		Failover: []FailoverResult{{Sockets: 1, Mode: stats.ReplSync, Replicas: 2, Engine: "dora", Workload: "tpcc",
			CommitsAcked: 5, DigestOK: true}},
	}
	again := full
	again.Results = g.Run(Options{Parallel: 1})
	dir := t.TempDir()
	var written [2][]byte
	for i, d := range []Doc{full, again} {
		path := filepath.Join(dir, fmt.Sprintf("doc%d.json", i))
		if err := d.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		written[i] = b
	}
	if !bytes.Equal(written[0], written[1]) {
		t.Errorf("two writes of the same grid differ:\n%s\n%s", written[0], written[1])
	}

	var doc struct {
		Suite   string `json:"suite"`
		Results []struct {
			Name    string `json:"name"`
			Commits int64  `json:"commits"`
		} `json:"results"`
		Recovery []struct {
			Name string `json:"name"`
			Txns int64  `json:"txns_recovered"`
		} `json:"recovery"`
		Failover []struct {
			Name  string `json:"name"`
			Acked int64  `json:"commits_acked"`
		} `json:"failover"`
	}
	if err := json.Unmarshal(written[0], &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Suite != "bionicbench" || len(doc.Results) != 1 || len(doc.Recovery) != 1 || len(doc.Failover) != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if r := doc.Results[0]; r.Name != "doc/tatp/dora/t2/s42" || r.Commits != full.Results[0].Res.Commits {
		t.Errorf("results section: %+v", r)
	}
	if r := doc.Recovery[0]; r.Name != "fig-recovery/tpcc/dora/x2/slog" || r.Txns != 7 {
		t.Errorf("recovery section: %+v", r)
	}
	if r := doc.Failover[0]; r.Name != "fig-failover/tpcc/dora/x1/sync" || r.Acked != 5 {
		t.Errorf("failover section: %+v", r)
	}

	for _, tc := range []struct {
		doc  Doc
		want string
	}{
		{Doc{Results: full.Results}, "results"},
		{Doc{Recovery: full.Recovery}, "recovery"},
		{Doc{Failover: full.Failover}, "failover"},
	} {
		b, err := tc.doc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys[tc.want]; len(keys) != 2 || !ok {
			t.Errorf("%s-only document has sections %v", tc.want, keys)
		}
	}
}

func smallHTAPYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "htap-ycsb", Make: func(int) core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return htap.NewYCSB(cfg, htap.DefaultParams())
	}}
}

func smallHTAPTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "htap-tpcc", Make: func(int) core.Workload {
		return htap.NewTPCC(tpcc.SmallConfig(), htap.DefaultParams())
	}}
}

// Run executes the whole grid; see Run.
func (g Grid) Run(opt Options) []Result { return Run(g.Points(), opt) }
