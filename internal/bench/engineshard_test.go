package bench

import (
	"reflect"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// This file pins the engine-on-shard execution contract: a sharded-log DORA
// machine homes each socket's partitions, trees, pool, locks and log shard
// on that socket's kernel shard, and the only legal cross-shard edges are
// posted interconnect messages. The tests prove three things: the digests
// are bit-identical between the serial and concurrent kernels (and against
// a pinned golden), the engine work really executes off shard 0 (a run
// that quietly fell back to shard-0 execution would still be bit-identical
// — speedup needs the witness), and the crash/recovery and failover
// families stay DeepEqual across kernels at 2/4/8 sockets.

// engineShardGoldenDigest is the pinned sweep digest of engineShardSpec
// below at 2, 4 and 8 sockets on the serial kernel. The concurrent kernel
// must reproduce it bit for bit.
const engineShardGoldenDigest = "a71002e29396f8ea02fe0ec1686af613db92253a89d669b6af66d5ef400eacf3"

// engineShardSpec is the DORA-only sharded-log scaling spec every test
// here runs: at 2+ sockets with no offloads, no replication and window 1,
// these points take the engine-sharded path.
func engineShardSpec(sockets []int) ScalingSpec {
	return ScalingSpec{
		Sockets:   sockets,
		Workloads: []WorkloadSpec{smallYCSB()},
		Engines: []ScalingEngine{{Name: "dora", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return DORAOn(cfg, partitions)
		}}},
		TerminalsPerSocket: 4,
		ShardedLog:         true,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
}

// TestEngineShardGoldenDigest pins engine-on-shard execution at 2, 4 and 8
// sockets: serial and concurrent kernels must both reproduce the recorded
// golden digest, and every concurrent point must show kernel events on at
// least two shards with work off shard 0 — the witness that the engines
// actually moved, not just that the results agree.
func TestEngineShardGoldenDigest(t *testing.T) {
	points := engineShardSpec([]int{2, 4, 8}).Points()
	serial := mustRun(t, "engine-shard/serial", withKernel(points, false), Options{Parallel: 2})
	if got := Digest(serial); got != engineShardGoldenDigest {
		t.Errorf("serial engine-shard digest drifted:\n got  %s\n want %s", got, engineShardGoldenDigest)
		logPointDigests(t, serial)
	}
	par := mustRun(t, "engine-shard/parallel", withKernel(points, true), Options{Parallel: 2})
	if got := Digest(par); got != engineShardGoldenDigest {
		t.Errorf("concurrent kernel diverged from golden:\n got  %s\n want %s", got, engineShardGoldenDigest)
	}
	for _, r := range par {
		by := r.Res.EventsByShard
		if len(by) != r.Point.Sockets {
			t.Fatalf("x%d: EventsByShard has %d shards", r.Point.Sockets, len(by))
		}
		busy := 0
		var offZero uint64
		for s, n := range by {
			if n > 0 {
				busy++
			}
			if s > 0 {
				offZero += n
			}
		}
		if offZero == 0 {
			t.Errorf("x%d: no kernel events off shard 0 — engines did not shard", r.Point.Sockets)
		}
		if busy < 2 {
			t.Errorf("x%d: engine work on %d shard(s), want >= 2", r.Point.Sockets, busy)
		}
	}
}

// TestEngineShardRecoveryEquivalence runs the crash/recovery family on
// engine-sharded machines at 2, 4 and 8 sockets and requires the full
// result structs — crash image, replayed content, timings, energy — to be
// DeepEqual between the serial and concurrent kernels.
func TestEngineShardRecoveryEquivalence(t *testing.T) {
	spec := RecoverySpec{
		Sockets:            []int{2, 4, 8},
		Workload:           func(n int) WorkloadSpec { return smallYCSB() },
		ShardedLog:         true,
		TerminalsPerSocket: 4,
		Seed:               42,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
	serial := spec.RunRecovery(Options{Parallel: 2})
	spec.KernelParallel = true
	par := spec.RunRecovery(Options{Parallel: 2})
	for i := range serial {
		if serial[i].Err != nil || par[i].Err != nil {
			t.Fatalf("x%d: serial err %v, parallel err %v", serial[i].Sockets, serial[i].Err, par[i].Err)
		}
		if serial[i].Rows == 0 {
			t.Errorf("x%d: recovered no rows", serial[i].Sockets)
		}
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("engine-shard recovery diverges between kernels:\nserial   %+v\nparallel %+v", serial, par)
	}
}

// TestEngineShardFailoverSteadyEquivalence covers the failover family's
// engine-sharded rows: replication forces the classic layout, so only the
// unreplicated steady-state baselines take the engine-on-shard path — at
// 2, 4 and 8 sockets they must be DeepEqual between kernels.
func TestEngineShardFailoverSteadyEquivalence(t *testing.T) {
	spec := FailoverSpec{
		Sockets:            []int{2, 4, 8},
		Modes:              []stats.ReplMode{stats.ReplNone},
		Workload:           func(sockets int) WorkloadSpec { return smallYCSB() },
		ShardedLog:         true,
		TerminalsPerSocket: 4,
		Seed:               42,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
	serialFo, serialSteady := spec.RunFailover(Options{Parallel: 2})
	spec.KernelParallel = true
	parFo, parSteady := spec.RunFailover(Options{Parallel: 2})
	for i := range serialFo {
		if serialFo[i].Err != nil || parFo[i].Err != nil {
			t.Fatalf("x%d: serial err %v, parallel err %v", serialFo[i].Sockets, serialFo[i].Err, parFo[i].Err)
		}
	}
	if !reflect.DeepEqual(serialFo, parFo) {
		t.Errorf("engine-shard failover rows diverge between kernels:\nserial   %+v\nparallel %+v", serialFo, parFo)
	}
	if ds, dp := Digest(serialSteady), Digest(parSteady); ds != dp {
		t.Errorf("steady-state digests diverge between kernels: serial %s vs parallel %s", ds, dp)
	}
}

// FuzzEngineShard drives the engine-on-shard equivalence with fuzzed
// socket counts and seeds: any input where the serial and concurrent
// kernels disagree on the sweep digest is a crasher.
func FuzzEngineShard(f *testing.F) {
	f.Add(uint8(0), uint64(42))
	f.Add(uint8(1), uint64(7))
	f.Add(uint8(2), uint64(1234))
	f.Fuzz(func(t *testing.T, rawSockets uint8, seed uint64) {
		n := 2 << (int(rawSockets) % 3) // 2, 4 or 8 sockets
		spec := engineShardSpec([]int{n})
		spec.Seeds = []uint64{seed%100000 + 1}
		spec.Measure = 2 * sim.Millisecond
		serial := Run(withKernel(spec.Points(), false), Options{Parallel: 1})
		par := Run(withKernel(spec.Points(), true), Options{Parallel: 1})
		for i := range serial {
			if serial[i].Err != nil || par[i].Err != nil {
				t.Fatalf("x%d seed %d: serial err %v, parallel err %v", n, spec.Seeds[0], serial[i].Err, par[i].Err)
			}
		}
		if ds, dp := Digest(serial), Digest(par); ds != dp {
			t.Errorf("x%d seed %d: kernels diverge: serial %s vs parallel %s", n, spec.Seeds[0], ds, dp)
		}
	})
}
