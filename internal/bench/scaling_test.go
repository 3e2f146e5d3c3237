package bench

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// TestScalingPointsExpansion checks the sweep's shape: ordering, load and
// partition scaling, and the socket annotation on every point.
func TestScalingPointsExpansion(t *testing.T) {
	spec := Grid{
		Group:     "fig-scaling",
		Sockets:   []int{1, 2, 4},
		Engines:   Engines(),
		Workloads: []WorkloadSpec{smallTATP(), smallYCSB()},
		Terminals: []int{8},
		Seeds:     []uint64{1, 2},
	}
	points := spec.Points()
	if want := 2 * 3 * 3 * 2; len(points) != want { // workloads x sockets x engines x seeds
		t.Fatalf("expected %d points, got %d", want, len(points))
	}
	// Workload outermost, sockets next, then the engine axis.
	if points[0].Workload.Name != "tatp" || points[len(points)/2].Workload.Name != "ycsb" {
		t.Errorf("unexpected workload order: %s, %s", points[0].Workload.Name, points[len(points)/2].Workload.Name)
	}
	for i, p := range points {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Group != "fig-scaling" {
			t.Errorf("point %d group = %q", i, p.Group)
		}
		if p.Sockets == 0 {
			t.Errorf("point %d has no socket annotation", i)
		}
		if p.Terminals != 8*p.Sockets {
			t.Errorf("point %d: %d terminals at %d sockets, want load scaled with the machine", i, p.Terminals, p.Sockets)
		}
	}
	// First socket block is 1, engine order conventional/dora/bionic.
	if points[0].Sockets != 1 || points[0].Engine.Name != "conventional" {
		t.Errorf("first point: sockets=%d engine=%s", points[0].Sockets, points[0].Engine.Name)
	}
	if points[3*2].Sockets != 2 { // 3 engines x 2 seeds per socket block
		t.Errorf("second socket block starts with sockets=%d, want 2", points[3*2].Sockets)
	}
}

// TestScalingParallelMatchesSerial extends the subsystem's core guarantee
// to multi-socket points.
func TestScalingParallelMatchesSerial(t *testing.T) {
	spec := Grid{
		Sockets:   []int{1, 2},
		Engines:   Engines(),
		Workloads: []WorkloadSpec{smallYCSB()},
		Terminals: []int{4},
		Seeds:     []uint64{7},
		Warmup:    1 * sim.Millisecond,
		Measure:   2 * sim.Millisecond,
	}
	points := spec.Points()
	serial := Run(points, Options{Parallel: 1})
	par := Run(points, Options{Parallel: 4})
	if ds, dp := Digest(serial), Digest(par); ds != dp {
		t.Errorf("scaling sweep digests diverge: serial %s vs parallel %s", ds, dp)
	}
}

// TestScalingJSONCarriesSockets checks the emitted document distinguishes
// socket counts, reports interconnect energy on multi-socket points, and
// that the scaling table renders a row per point.
func TestScalingJSONCarriesSockets(t *testing.T) {
	spec := Grid{
		Sockets:   []int{1, 2},
		Engines:   []EngineSpec{DORA()},
		Workloads: []WorkloadSpec{smallTATP()},
		Terminals: []int{4},
		Seeds:     []uint64{3},
		Warmup:    1 * sim.Millisecond,
		Measure:   2 * sim.Millisecond,
	}
	results := spec.Run(Options{Parallel: 2})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/x%d failed: %v", r.Point.Engine.Name, r.Point.Sockets, r.Err)
		}
	}
	b, err := Doc{Results: results}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name     string  `json:"name"`
			Sockets  int     `json:"sockets"`
			TPS      float64 `json:"tps"`
			ICJoules float64 `json:"interconnect_joules"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("expected 2 results, got %d", len(doc.Results))
	}
	if doc.Results[0].Sockets != 1 || doc.Results[1].Sockets != 2 {
		t.Errorf("socket counts not carried: %+v", doc.Results)
	}
	if !strings.Contains(doc.Results[1].Name, "/x2") {
		t.Errorf("multi-socket result name %q lacks the socket suffix", doc.Results[1].Name)
	}
	if doc.Results[0].ICJoules != 0 {
		t.Errorf("single-socket run reports interconnect energy %g", doc.Results[0].ICJoules)
	}
	if doc.Results[1].ICJoules <= 0 {
		t.Error("2-socket TATP run reports no interconnect energy (cross-shard traffic must pay)")
	}

	table := ScalingTable(results).String()
	for _, want := range []string{"sockets", "speedup", "dora"} {
		if !strings.Contains(table, want) {
			t.Errorf("scaling table missing %q:\n%s", want, table)
		}
	}
}

// TestScalingThroughputGrows is the sweep's reason to exist: under weak
// scaling software DORA's throughput must grow with sockets (the simulated
// machine is deterministic, so this is a stable property, not a flaky
// performance assertion), and no transaction may exhaust its retry budget
// on the way. The sharded-log case is bionicbench -fig-scaling -sharded-log
// -quick's TPC-C row: its curve is a property of the modeled machine, so it
// never falls from one socket count to the next.
func TestScalingThroughputGrows(t *testing.T) {
	for _, tc := range []struct {
		name            string
		sockets         []int
		workload        WorkloadSpec
		sharded         bool
		warmup, measure sim.Duration
		grow            float64 // least tps ratio between successive socket counts
	}{
		{"central-tatp", []int{1, 4}, smallTATP(), false,
			1 * sim.Millisecond, 4 * sim.Millisecond, 2},
		{"sharded-tpcc", []int{1, 2, 4}, quickTPCC(), true,
			5 * sim.Millisecond, 15 * sim.Millisecond, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each point's engine, by socket count, for its give-up counter.
			var mu sync.Mutex
			engines := map[int]core.Engine{}
			dora := DORA()
			dora.Make = func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine {
				eng := DORA().Make(env, cfg, wl, partitions)
				mu.Lock()
				engines[cfg.NumSockets()] = eng
				mu.Unlock()
				return eng
			}
			spec := Grid{
				Sockets:    tc.sockets,
				Engines:    []EngineSpec{dora},
				Workloads:  []WorkloadSpec{tc.workload},
				Terminals:  []int{8},
				ShardedLog: tc.sharded,
				Seeds:      []uint64{42},
				Warmup:     tc.warmup,
				Measure:    tc.measure,
			}
			results := mustRun(t, tc.name, spec.Points(), Options{Parallel: 2})
			for i, r := range results {
				t.Logf("x%d: %.0f tps", tc.sockets[i], r.Res.TPS)
				if n := engines[tc.sockets[i]].Counters().Get("aborts.giveup"); n != 0 {
					t.Errorf("x%d: %d transactions exhausted their retry budget", tc.sockets[i], n)
				}
				if i == 0 {
					continue
				}
				if prev := results[i-1].Res.TPS; r.Res.TPS < tc.grow*prev {
					t.Errorf("dora throughput at %d sockets = %.0f tps, want at least %gx the %.0f at %d",
						tc.sockets[i], r.Res.TPS, tc.grow, prev, tc.sockets[i-1])
				}
			}
		})
	}
}

// TestScalingShardedLogAxis pins the sharded-log axis: sharded points are
// annotated (except at 1 socket, where sharding is structurally absent and
// the run must be bit-identical to the central baseline), digests keep the
// two layouts apart, and the sharded engines actually beat their
// centralized selves where the log is the wall.
func TestScalingShardedLogAxis(t *testing.T) {
	mk := func(sharded bool) Grid {
		return Grid{
			Sockets:    []int{1, 2},
			Engines:    []EngineSpec{DORA()},
			Workloads:  []WorkloadSpec{smallYCSB()},
			Terminals:  []int{4},
			Seeds:      []uint64{7},
			Warmup:     1 * sim.Millisecond,
			Measure:    2 * sim.Millisecond,
			ShardedLog: sharded,
		}
	}
	central := mk(false).Points()
	sharded := mk(true).Points()
	if sharded[0].ShardedLog {
		t.Error("1-socket point annotated sharded; the flag is structurally inert there")
	}
	if !sharded[1].ShardedLog {
		t.Error("2-socket sharded point not annotated")
	}
	cres := Run(central, Options{Parallel: 2})
	sres := Run(sharded, Options{Parallel: 2})
	for _, rs := range [][]Result{cres, sres} {
		for _, r := range rs {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	// 1-socket runs are bit-identical with the flag on or off.
	if d1, d2 := Digest(cres[:1]), Digest(sres[:1]); d1 != d2 {
		t.Errorf("1-socket sharded run diverged from central: %s vs %s", d1, d2)
	}
	// 2-socket digests must differ in annotation (and almost surely in
	// results); a combined document keeps both rows addressable.
	if d1, d2 := Digest(cres), Digest(sres); d1 == d2 {
		t.Error("sharded axis digests identically to central")
	}
	b, err := Doc{Results: append(append([]Result{}, cres...), sres...)}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name       string `json:"name"`
			ShardedLog bool   `json:"sharded_log"`
			LogShards  []struct {
				Shard int   `json:"shard"`
				Bytes int64 `json:"bytes"`
				Syncs int64 `json:"syncs"`
			} `json:"log_shards"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	last := doc.Results[len(doc.Results)-1]
	if !last.ShardedLog || !strings.Contains(last.Name, "/slog") {
		t.Errorf("sharded point emitted as %q sharded=%v", last.Name, last.ShardedLog)
	}
	if len(last.LogShards) != 2 {
		t.Fatalf("sharded 2-socket point reports %d log shards", len(last.LogShards))
	}
	both := 0
	for _, sh := range last.LogShards {
		if sh.Bytes > 0 && sh.Syncs > 0 {
			both++
		}
	}
	if both != 2 {
		t.Errorf("both shards should carry log traffic: %+v", last.LogShards)
	}
	if len(doc.Results[0].LogShards) != 1 {
		t.Errorf("central point reports %d log shards, want 1", len(doc.Results[0].LogShards))
	}
	table := ScalingTable(append(append([]Result{}, cres...), sres...)).String()
	for _, want := range []string{"central", "sharded", "log"} {
		if !strings.Contains(table, want) {
			t.Errorf("scaling table missing %q:\n%s", want, table)
		}
	}
}

// TestRecoverySweepSmall runs the fig-recovery experiment at 1 and 2
// sockets on a small YCSB database: every point must recover without error
// (the point itself cross-checks serial vs parallel replay content) and
// report a sane shape. Then it crashes every engine on small TPC-C, YCSB and
// TATP at 1, 2 and 4 sockets at eight instants strided across the first
// three milliseconds, where the crash lands mid-flush, mid-commit and
// mid-decision-round: the point's own oracle must find every acknowledged
// commit in the recovered log, and at most one more per terminal.
func TestRecoverySweepSmall(t *testing.T) {
	spec := Grid{
		Sockets:    []int{1, 2},
		Engines:    []EngineSpec{DORA()},
		Workloads:  []WorkloadSpec{smallYCSB()},
		ShardedLog: true,
		Terminals:  []int{4},
		Seeds:      []uint64{42},
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
	}
	results := spec.RunRecovery(Options{Parallel: 2})
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("x%d: %v", r.Sockets, r.Err)
		}
		if r.Rows == 0 || r.Txns == 0 || r.LogBytes == 0 {
			t.Errorf("x%d recovered nothing: %+v", r.Sockets, r)
		}
		if r.TotalSim <= 0 || r.Joules <= 0 {
			t.Errorf("x%d missing cost accounting: total=%v joules=%g", r.Sockets, r.TotalSim, r.Joules)
		}
	}
	if results[0].Shards != 1 || results[1].Shards != 2 {
		t.Errorf("shard counts %d/%d, want 1/2", results[0].Shards, results[1].Shards)
	}
	table := RecoveryTable(results).String()
	if !strings.Contains(table, "par replay") {
		t.Errorf("recovery table malformed:\n%s", table)
	}

	for k := 0; k < 8; k++ {
		measure := 250*sim.Microsecond + sim.Duration(k)*370*sim.Microsecond
		spec := Grid{
			Sockets:    []int{1, 2, 4},
			Engines:    Engines(),
			Workloads:  []WorkloadSpec{smallTPCC(), smallYCSB(), smallTATP()},
			ShardedLog: true,
			Terminals:  []int{4},
			Seeds:      []uint64{42},
			Warmup:     1 * sim.Millisecond,
			Measure:    measure,
		}
		for _, r := range spec.RunRecovery(Options{Parallel: 2}) {
			if r.Err != nil {
				t.Errorf("%s/%s/x%d crashed at +%v: %v", r.Engine, r.Workload, r.Sockets, measure, r.Err)
			}
		}
	}
}
