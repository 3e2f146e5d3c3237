package bench

import (
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// goldenDigest pins the simulated output of the golden grid, bit for bit.
// The value was recorded on the pre-optimization event kernel (PR 2); any
// kernel or engine change that alters simulated results — event ordering,
// random-stream consumption, cost charging — changes this digest and must
// be treated as a behavior change, not a perf win. Perf work must keep it
// stable.
//
// To re-pin after an intentional behavior change, run
//
//	go test ./internal/bench -run TestGoldenSweepDigest -v
//
// and copy the printed digest here, noting the change in the PR.
//
// Re-pinned once with goldenScalingDigest and goldenHTAPDigest (from 41bd8e7b,
// 7ae119e4, 4246c08b) for update-intent reads: the workloads' read-then-write
// sites call AccessCtx.ReadForUpdate, which on the conventional engine takes
// IX + X where Read took IS + S, so its TPC-C transactions queue on a hot row
// where they used to deadlock on the S-to-X upgrade and retry. The per-point
// digests (logPointDigests) moved on the six conventional TPC-C points only:
// golden/tpcc, fig-scaling/tpcc x2 and x4, fig-htap/htap-tpcc x1, x2 and x4.
// The three grids' other 33 points, every DORA and bionic point and the
// conventional TATP and YCSB points among them, are bit-identical.
const goldenDigest = "8f736756929f7950592fff861439f3342ffaab07f135b7b2370fd919188d9e9c"

// logPointDigests logs one digest per point of a sweep whose pinned digest
// no longer matches, so the re-pin can list the points that moved: diff the
// lines against the ones the parent commit prints with its constant broken
// by hand.
func logPointDigests(t *testing.T, results []Result) {
	t.Helper()
	for i, r := range results {
		p := r.Point
		t.Logf("point %s/%s/%s/x%d: %s", p.Group, p.Workload.Name, p.Engine.Name, p.Sockets, Digest(results[i:i+1]))
	}
}

// goldenGrid covers all three engines and all three workloads: TATP
// (single-partition actions), TPC-C (cross-partition fan-out, rollbacks,
// PutFront lock-release traffic) and YCSB (scans without entity locks).
func goldenGrid() Grid {
	return Grid{
		Group:               "golden",
		Engines:             []EngineSpec{Conventional(), DORA(), Bionic(core.AllOffloads())},
		Workloads:           []WorkloadSpec{smallTATP(), smallTPCC(), smallYCSB()},
		Terminals:           []int{8},
		PartitionsPerSocket: 4,
		Seeds:               []uint64{42},
		Warmup:              1 * sim.Millisecond,
		Measure:             3 * sim.Millisecond,
	}
}

// TestGoldenSweepDigest proves the kernel reproduces the recorded sweep
// results exactly, on both serial and parallel executions.
func TestGoldenSweepDigest(t *testing.T) {
	grid := goldenGrid()
	points := grid.Points()
	serial := Run(points, Options{Parallel: 1})
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("%s/%s failed: %v", r.Point.Workload.Name, r.Point.Engine.Name, r.Err)
		}
	}
	got := Digest(serial)
	t.Logf("serial digest: %s", got)
	if got != goldenDigest {
		t.Errorf("serial sweep digest diverged from golden:\n got  %s\n want %s", got, goldenDigest)
		logPointDigests(t, serial)
	}
	par := Run(points, Options{Parallel: 4})
	if pd := Digest(par); pd != got {
		t.Errorf("parallel sweep digest diverged from serial:\n got  %s\n want %s", pd, got)
	}
}

// TestGoldenNoReplication is the replication subsystem's no-feature guard:
// a replication-disabled run must build none of the new machinery, so every
// golden point hashes exactly as it did before the subsystem existed (the
// three golden digests in this file prove that bit for bit). This test pins
// the structural half the digests imply: unreplicated results carry no
// replication statistics, spend no replication energy, and hash without any
// replication markers.
func TestGoldenNoReplication(t *testing.T) {
	g := goldenGrid()
	p := g.Points()[0]
	if p.Repl != stats.ReplNone {
		t.Fatalf("golden point annotated with replication mode %v", p.Repl)
	}
	r := p.Run()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Res.Repl != nil {
		t.Errorf("unreplicated run reported replication stats: %+v", r.Res.Repl)
	}
	if r.Res.Energy.Replication != 0 {
		t.Errorf("unreplicated run spent %v J in the replication domain", r.Res.Energy.Replication)
	}
	// The digest of an unreplicated result must be insensitive to the
	// replication code path existing at all: hashing the same result twice
	// is trivially stable, and the golden constants above pin it against
	// the pre-replication recordings.
	if d1, d2 := Digest([]Result{r}), Digest([]Result{r}); d1 != d2 {
		t.Errorf("digest not stable: %s vs %s", d1, d2)
	}
}

// goldenScalingDigest pins the multi-socket sweep bit for bit: all three
// engines on all three workloads at 2 and 4 sockets — the cross-shard
// commit path, the interconnect timing/energy model, and the conventional
// engine's lock-table NUMA tax are all under this digest. Re-pin exactly
// as for goldenDigest, treating any change as a behavior change.
const goldenScalingDigest = "da20d4cd3e6c886485f4424611f8f5fac4f031af716ad9ed3dbbc2df0f5d71e8"

// goldenScalingGrid is the pinned multi-socket grid.
func goldenScalingGrid() Grid {
	return Grid{
		Group:     "fig-scaling",
		Sockets:   []int{2, 4},
		Engines:   Engines(),
		Workloads: []WorkloadSpec{smallTATP(), smallTPCC(), smallYCSB()},
		Terminals: []int{4},
		Seeds:     []uint64{42},
		Warmup:    1 * sim.Millisecond,
		Measure:   3 * sim.Millisecond,
	}
}

// TestGoldenScalingDigest proves multi-socket runs are as reproducible as
// single-socket ones: the recorded digest holds, serial and parallel.
func TestGoldenScalingDigest(t *testing.T) {
	points := goldenScalingGrid().Points()
	serial := Run(points, Options{Parallel: 1})
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("%s/%s/x%d failed: %v", r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets, r.Err)
		}
		if r.Res.Commits == 0 {
			t.Errorf("%s/%s/x%d committed nothing", r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
		}
	}
	got := Digest(serial)
	t.Logf("serial scaling digest: %s", got)
	if got != goldenScalingDigest {
		t.Errorf("scaling digest diverged from golden:\n got  %s\n want %s", got, goldenScalingDigest)
		logPointDigests(t, serial)
	}
	par := Run(points, Options{Parallel: 4})
	if pd := Digest(par); pd != got {
		t.Errorf("parallel scaling digest diverged from serial:\n got  %s\n want %s", pd, got)
	}
}

// goldenHTAPDigest pins the hybrid sweep bit for bit: conventional and
// bionic at 1, 2 and 4 sockets on both mixed workloads, with the
// analytical half attached — projection maintenance (host refresh vs
// overlay merge-fed), scan scheduling, and the freshness metric are all
// under this digest. This PR introduces the HTAP subsystem; goldenDigest
// and goldenScalingDigest above are untouched by it (nil Analytics runs
// are bit-identical to the pre-HTAP harness), which their tests prove.
// Re-pin exactly as for goldenDigest.
const goldenHTAPDigest = "87873b7944ef39ba7d2eb27f95f86737dff01de67d22df9e24e150f8f71d3097"

// goldenHTAPGrid is the pinned hybrid grid: conventional and bionic, the
// two machines fig-htap contrasts.
func goldenHTAPGrid() Grid {
	engines := Engines()
	return Grid{
		Group:      "fig-htap",
		Sockets:    []int{1, 2, 4},
		Engines:    []EngineSpec{engines[0], engines[2]},
		Workloads:  []WorkloadSpec{smallHTAPYCSB(), smallHTAPTPCC()},
		Terminals:  []int{4},
		ShardedLog: true,
		HTAP:       true,
		Seeds:      []uint64{42},
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
	}
}

// TestGoldenHTAPDigest proves hybrid runs are as reproducible as pure-OLTP
// ones: the recorded digest holds, serial and parallel.
func TestGoldenHTAPDigest(t *testing.T) {
	points := goldenHTAPGrid().Points()
	serial := Run(points, Options{Parallel: 1})
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("%s/%s/x%d failed: %v", r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets, r.Err)
		}
		if r.Res.Scan == nil || r.Res.Scan.Scans == 0 {
			t.Errorf("%s/%s/x%d ran no analytical scans", r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
		}
		if r.Res.Scan != nil && r.Res.Scan.SnapViolations != 0 {
			t.Errorf("%s/%s/x%d saw %d snapshot violations", r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets, r.Res.Scan.SnapViolations)
		}
	}
	got := Digest(serial)
	t.Logf("serial htap digest: %s", got)
	if got != goldenHTAPDigest {
		t.Errorf("htap digest diverged from golden:\n got  %s\n want %s", got, goldenHTAPDigest)
		logPointDigests(t, serial)
	}
	par := Run(points, Options{Parallel: 4})
	if pd := Digest(par); pd != got {
		t.Errorf("parallel htap sweep diverged from serial:\n got  %s\n want %s", pd, got)
	}
}

// goldenShardedDORADigest pins pure-software DORA on the sharded-log machine
// at 2, 4 and 8 sockets: per-socket log shards, cross-socket enqueues and
// votes over the interconnect, the cross-shard decision round and the vector
// durable point with no hardware unit in the way. Re-pin exactly as for
// goldenDigest.
//
// Re-pinned once (from a71002e2, the deleted engineShardGoldenDigest over the
// same three points): sharded-log software DORA now runs the one layout; it
// parks on cross-socket conflicts like every other engine. The value is what
// the parent commit prints with its engine-on-shard gate forced false (points
// 683f0753, 39f7af01, 06edc267), so the classic path itself did not move.
const goldenShardedDORADigest = "6803235d8103961ea52ba6e745358595856446cfeb3484c7ffb0ec4380181082"

// goldenShardedDORAGrid is the pinned sharded-log software-DORA grid.
func goldenShardedDORAGrid() Grid {
	return Grid{
		Group:      "fig-scaling",
		Sockets:    []int{2, 4, 8},
		Engines:    []EngineSpec{DORA()},
		Workloads:  []WorkloadSpec{smallYCSB()},
		Terminals:  []int{4},
		ShardedLog: true,
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
	}
}

// TestGoldenShardedDORADigest proves the recorded digest holds, serial and
// parallel.
func TestGoldenShardedDORADigest(t *testing.T) {
	points := goldenShardedDORAGrid().Points()
	serial := mustRun(t, "sharded-dora", points, Options{Parallel: 1})
	got := Digest(serial)
	if got != goldenShardedDORADigest {
		t.Errorf("sharded-log DORA digest diverged from golden:\n got  %s\n want %s", got, goldenShardedDORADigest)
		logPointDigests(t, serial)
	}
	par := mustRun(t, "sharded-dora/parallel", points, Options{Parallel: 4})
	if pd := Digest(par); pd != got {
		t.Errorf("parallel sharded-log DORA digest diverged from serial:\n got  %s\n want %s", pd, got)
	}
}

// goldenAblationDigest pins the C2 offload lattice bit for bit: the seven
// offload subsets bionicbench -ablation sweeps, on the small TATP mix over
// the golden grid's window. goldenDigest covers only the two ends of the
// lattice (no offload, every offload); this digest puts the queue unit
// alone, the log unit alone, the two together, and the tree-probe/overlay
// pair with and without the log unit under the same guard. Re-pin exactly as
// for goldenDigest.
const goldenAblationDigest = "34e5b3eccba4094135e55b81725f5c8e84993282f50305536016ad9eb89ff2e2"

// goldenAblationGrid is the pinned lattice, in bionicbench -ablation's order.
func goldenAblationGrid() Grid {
	var engines []EngineSpec
	for _, off := range []core.Offloads{
		{},
		{Queue: true},
		{Log: true},
		{Queue: true, Log: true},
		{Overlay: true},
		{Log: true, Overlay: true},
		core.AllOffloads(),
	} {
		engines = append(engines, Bionic(off))
	}
	g := goldenGrid()
	g.Group = "ablation"
	g.Engines = engines
	g.Workloads = []WorkloadSpec{smallTATP()}
	return g
}

// TestGoldenAblationDigest proves the recorded digest holds, serial and
// parallel.
func TestGoldenAblationDigest(t *testing.T) {
	points := goldenAblationGrid().Points()
	serial := mustRun(t, "ablation", points, Options{Parallel: 1})
	got := Digest(serial)
	t.Logf("serial ablation digest: %s", got)
	if got != goldenAblationDigest {
		t.Errorf("ablation digest diverged from golden:\n got  %s\n want %s", got, goldenAblationDigest)
		logPointDigests(t, serial)
	}
	par := mustRun(t, "ablation/parallel", points, Options{Parallel: 4})
	if pd := Digest(par); pd != got {
		t.Errorf("parallel ablation digest diverged from serial:\n got  %s\n want %s", pd, got)
	}
}
