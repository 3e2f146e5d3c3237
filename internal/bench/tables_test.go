package bench

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

var updateTables = flag.Bool("update-tables", false, "rewrite testdata/tables.txt from the current table functions")

// hist is a latency histogram holding ds.
func hist(ds ...sim.Duration) *stats.Histogram {
	h := &stats.Histogram{}
	for _, d := range ds {
		h.Record(d)
	}
	return h
}

// synthetic is a finished run with the fields the tables read.
func synthetic(tps, ujPerTxn float64, commits, aborts int64, lat ...sim.Duration) *core.Result {
	return &core.Result{TPS: tps, JoulesPerTxn: ujPerTxn * 1e-6, Commits: commits, Aborts: aborts, Latency: hist(lat...)}
}

// syntheticPoint is a point naming only what the tables print.
func syntheticPoint(wl, eng string, sockets, terminals int, sharded bool) Point {
	return Point{Workload: WorkloadSpec{Name: wl}, Engine: EngineSpec{Name: eng},
		Sockets: sockets, Terminals: terminals, Seed: 42, ShardedLog: sharded,
		Warmup: 5 * sim.Millisecond, Measure: 15 * sim.Millisecond}
}

// renderTables renders the five bench tables over hand-built results, each
// as text and as CSV. Every table has one row per engine and one errored
// row; the scaling table has a curve whose lowest socket count reads 0 tps
// and a curve that never commits; the failover table has an unreplicated
// baseline row.
func renderTables() string {
	us := sim.Microsecond
	sweep := []Result{
		{Point: syntheticPoint("tatp", "conventional", 0, 64, false), Res: synthetic(41234.6, 93.46, 619, 3, 41*us, 87*us, 230*us)},
		{Point: syntheticPoint("tatp", "dora", 0, 64, false), Res: synthetic(65300.2, 61.25, 980, 0, 30*us, 33*us, 95*us)},
		{Point: syntheticPoint("tatp", "bionic[queue+log+overlay]", 0, 64, false), Res: synthetic(70011.5, 21.04, 1050, 1, 12*us, 19*us)},
		{Point: syntheticPoint("tpcc", "dora", 0, 40, false), Err: errors.New("populate: out of pages")},
	}

	scaling := []Result{
		{Point: syntheticPoint("tpcc", "conventional", 1, 8, false), Res: synthetic(0, 0, 0, 0)},
		{Point: syntheticPoint("tpcc", "conventional", 2, 16, false), Res: synthetic(812.4, 410.77, 12, 0, 900*us, 1400*us)},
		{Point: syntheticPoint("tpcc", "dora", 1, 8, false), Res: synthetic(2000, 150.05, 30, 0, 300*us)},
		{Point: syntheticPoint("tpcc", "dora", 2, 16, false), Res: synthetic(3510.9, 160.44, 52, 2, 310*us, 500*us)},
		{Point: syntheticPoint("tpcc", "dora", 2, 16, true), Res: synthetic(3905.3, 158.91, 58, 0, 280*us, 460*us)},
		{Point: syntheticPoint("tpcc", "bionic", 1, 8, false), Res: synthetic(0, 0, 0, 0)},
		{Point: syntheticPoint("tpcc", "bionic", 2, 16, true), Res: synthetic(0, 0, 0, 0)},
		{Point: syntheticPoint("ycsb", "dora", 4, 32, true), Err: errors.New("run: deadline exceeded")},
	}

	htapScan := synthetic(5120.7, 88.16, 76, 0, 140*us, 260*us)
	htapScan.Scan = &stats.ScanStats{Scans: 14, Bytes: 7_340_032, StaleMax: 1250 * us, StaleSum: 4100 * us}
	htapRes := []Result{
		{Point: syntheticPoint("htap-ycsb", "conventional", 1, 8, true), Res: synthetic(3900.1, 120.33, 58, 1, 200*us)},
		{Point: syntheticPoint("htap-ycsb", "bionic", 1, 8, true), Res: htapScan},
		{Point: syntheticPoint("htap-tpcc", "bionic", 2, 16, true), Err: errors.New("HTAP point: workload htap-tpcc has no analytical half")},
	}

	recovery := []RecoveryResult{
		{Sockets: 1, Shards: 1, Engine: "dora", Workload: "tpcc", LogBytes: 153_600, Txns: 412, Records: 3900,
			RestoreSim: 2100 * us, SerialReplay: 800 * us, ParallelReplay: 800 * us, TotalSim: 2900 * us, Joules: 0.01234, Rows: 250_000},
		{Sockets: 2, Shards: 2, ShardedLog: true, Engine: "dora", Workload: "tpcc", LogBytes: 301_000, Txns: 830, Records: 7700,
			RestoreSim: 4000 * us, SerialReplay: 1600 * us, ParallelReplay: 850 * us, TotalSim: 4850 * us, Joules: 0.02468, Rows: 500_000},
		{Sockets: 4, Shards: 4, ShardedLog: true, Engine: "bionic", Workload: "tpcc", Txns: 0, Rows: 1_000_000},
		{Sockets: 8, ShardedLog: true, Engine: "dora", Workload: "tpcc", Err: errors.New("recovered 10 transactions, 12 acknowledged: acknowledged commits lost")},
	}

	failover := []FailoverResult{
		{Sockets: 1, Mode: stats.ReplNone, Engine: "dora", Workload: "tpcc", TPS: 4100.4, P50: 180 * us, P95: 420 * us, DigestOK: true},
		{Sockets: 1, Shards: 1, Mode: stats.ReplAsync, Replicas: 2, Engine: "dora", Workload: "tpcc", TPS: 4090.6,
			P50: 182 * us, P95: 430 * us, OverheadP50: 1.0111, CommitsAcked: 61, TxnsRecovered: 58, LostTxns: 3,
			LostTailBytes: 2_600, TimeToServing: 5300 * us, DigestOK: true},
		{Sockets: 1, Shards: 1, Mode: stats.ReplQuorum, Replicas: 2, Engine: "bionic", Workload: "tpcc", TPS: 3300,
			P50: 260 * us, P95: 600 * us, OverheadP50: 1.4444, CommitsAcked: 50, TxnsRecovered: 50,
			TimeToServing: 5100 * us, DigestOK: true},
		{Sockets: 2, Mode: stats.ReplSync, Replicas: 2, Engine: "dora", Workload: "tpcc", Err: errors.New("sync lost 2 of 40 acknowledged commits")},
	}

	var b strings.Builder
	for _, tb := range []struct {
		name string
		t    *stats.Table
	}{
		{"Table", Table(sweep)},
		{"ScalingTable", ScalingTable(scaling)},
		{"HTAPTable", HTAPTable(htapRes)},
		{"RecoveryTable", RecoveryTable(recovery)},
		{"FailoverTable", FailoverTable(failover)},
	} {
		b.WriteString("### " + tb.name + "\n" + tb.t.String() + "\n")
		b.WriteString("### " + tb.name + " (CSV)\n" + tb.t.CSV() + "\n")
	}
	return b.String()
}

// TestTablesGolden pins every bench table, text and CSV, cell for cell:
// headers, formats, error rows and derived columns. Regenerate with
//
//	go test ./internal/bench -run TestTablesGolden -update-tables
//
// only when a table is meant to change.
func TestTablesGolden(t *testing.T) {
	got := renderTables()
	const path = "testdata/tables.txt"
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("tables differ from %s:\n%s", path, got)
	}
}
