package bench

import (
	"reflect"
	"strings"
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// failoverGrid is the crash experiments' machine: DORA (the software
// sharded log) on per-socket log devices, two replicas when replicated.
func failoverGrid(workload WorkloadSpec, sockets []int, terminals int, warmup, measure sim.Duration) Grid {
	return Grid{
		Group:      "fig-failover",
		Sockets:    sockets,
		Engines:    []EngineSpec{DORA()},
		Workloads:  []WorkloadSpec{workload},
		Terminals:  []int{terminals},
		ShardedLog: true,
		Replicas:   2,
		Seeds:      []uint64{42},
		Warmup:     warmup,
		Measure:    measure,
	}
}

func smallFailoverSpec() FailoverSpec {
	return FailoverSpec{
		Grid:  failoverGrid(smallTPCC(), []int{1, 2}, 4, 1*sim.Millisecond, 3*sim.Millisecond),
		Modes: []stats.ReplMode{stats.ReplNone, stats.ReplAsync, stats.ReplSync},
	}
}

// TestFailoverSerialParallelIdentical pins the sweep's determinism: the
// fault plan, the kill instant, the surviving image and the recovered
// content must be bit-identical whether points run serially or fanned out.
func TestFailoverSerialParallelIdentical(t *testing.T) {
	spec := smallFailoverSpec()
	serialFo, serialSteady := spec.RunFailover(Options{Parallel: 1})
	parFo, parSteady := spec.RunFailover(Options{Parallel: 4})
	if !reflect.DeepEqual(serialFo, parFo) {
		t.Errorf("failover results diverge between serial and parallel runs:\n%+v\n%+v", serialFo, parFo)
	}
	if ds, dp := Digest(serialSteady), Digest(parSteady); ds != dp {
		t.Errorf("steady-state digests diverge: serial %s vs parallel %s", ds, dp)
	}
	for _, r := range serialFo {
		if r.Err != nil {
			t.Fatalf("x%d/%s failed: %v", r.Sockets, r.Mode, r.Err)
		}
		if r.TPS <= 0 {
			t.Errorf("x%d/%s measured no throughput", r.Sockets, r.Mode)
		}
		if r.Mode == stats.ReplNone {
			if r.CommitsAcked != 0 || r.TimeToServing != 0 {
				t.Errorf("baseline row carries failover fields: %+v", r)
			}
			continue
		}
		if !r.DigestOK {
			t.Errorf("x%d/%s replica content diverged", r.Sockets, r.Mode)
		}
		if r.CommitsAcked == 0 || r.TxnsRecovered == 0 || r.TimeToServing <= 0 {
			t.Errorf("x%d/%s empty failover measurement: %+v", r.Sockets, r.Mode, r)
		}
		if r.OverheadP50 <= 0 {
			t.Errorf("x%d/%s missing overhead vs baseline", r.Sockets, r.Mode)
		}
		if r.Mode == stats.ReplSync && r.LostTxns != 0 {
			t.Errorf("sync lost %d acknowledged commits", r.LostTxns)
		}
		if r.ShippedBytes == 0 {
			t.Errorf("x%d/%s shipped nothing in steady state", r.Sockets, r.Mode)
		}
	}
}

func TestFailoverDefaults(t *testing.T) {
	want := []stats.ReplMode{stats.ReplNone, stats.ReplAsync, stats.ReplSync, stats.ReplQuorum}
	if got := DefaultFailoverModes(); !reflect.DeepEqual(got, want) {
		t.Errorf("default modes %v", got)
	}
}

func TestFailoverTableAndJSON(t *testing.T) {
	results := []FailoverResult{
		{Sockets: 1, Mode: stats.ReplNone, Engine: "dora", Workload: "tpcc", TPS: 1000},
		{Sockets: 1, Shards: 1, Mode: stats.ReplQuorum, Replicas: 2, Engine: "dora", Workload: "tpcc",
			TPS: 800, P50: 100 * sim.Microsecond, OverheadP50: 1.5,
			CommitsAcked: 50, TxnsRecovered: 50, TimeToServing: 2 * sim.Millisecond, DigestOK: true},
	}
	tbl := FailoverTable(results).String()
	for _, want := range []string{"none", "quorum", "1.50x", "2.000ms"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	b, err := Doc{Failover: results}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"suite": "bionicbench"`,
		`"name": "fig-failover/tpcc/dora/x1/quorum"`,
		`"replication": "none"`,
		`"digest_ok": true`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

// TestFailoverBaselineSharesLayout pins that the tax column compares like
// with like: the unreplicated baseline runs the same engine layout as the
// replicated modes, so at 2 sockets on -quick's TPC-C asynchronous shipping
// (which waits for nothing) commits the baseline's throughput within 1%.
func TestFailoverBaselineSharesLayout(t *testing.T) {
	spec := FailoverSpec{
		Grid:  failoverGrid(quickTPCC(), []int{2}, 8, 5*sim.Millisecond, 15*sim.Millisecond),
		Modes: []stats.ReplMode{stats.ReplNone, stats.ReplAsync},
	}
	fo, _ := spec.RunFailover(Options{Parallel: 2})
	for _, r := range fo {
		if r.Err != nil {
			t.Fatalf("x%d/%s failed: %v", r.Sockets, r.Mode, r.Err)
		}
	}
	none, async := fo[0].TPS, fo[1].TPS
	if d := async/none - 1; d > 0.01 || d < -0.01 {
		t.Errorf("async commits %.0f tps against an unreplicated %.0f (%+.1f%%), want within 1%%", async, none, 100*d)
	}
}
