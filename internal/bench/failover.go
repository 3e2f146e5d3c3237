package bench

import (
	"bytes"
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// FailoverSpec declares the fig-failover experiment: every point of the
// grid at every replication mode. Each (point, mode) measures two things.
// First, steady state: a normal measured run with the log shipped to the
// grid's Replicas replica machines under the mode, so the table shows what
// each commit-wait discipline costs in latency and throughput against the
// unreplicated baseline. Second, failover: a crash-harness run with a
// seed-deterministic fault plan — link-lag and partition windows, a replica
// stall, then a primary kill mid-measure — after which the replica boots
// through the measured parallel-recovery path, core.DefaultDetect after the
// kill. The figure is the replication tax versus what it buys:
// time-to-serving and how many acknowledged transactions survive per mode.
// The grid's Obs traces the steady-state runs; the crash phase runs
// uninstrumented (it stops mid-flight, so there is no window to trace).
type FailoverSpec struct {
	Grid
	// Modes are the replication modes to measure; ReplNone rows are
	// steady-state baselines only (default none, async, sync, quorum).
	Modes []stats.ReplMode
}

// FailoverResult is one (point, mode) measurement.
type FailoverResult struct {
	Sockets    int
	Shards     int
	Mode       stats.ReplMode
	Replicas   int
	ShardedLog bool
	Engine     string
	Workload   string

	// Steady state (measured run with replication attached).
	TPS          float64
	P50, P95     sim.Duration
	OverheadP50  float64 // p50 ratio vs the same-socket ReplNone row (1 = free; 0 on baselines)
	ShippedBytes int64   // window bytes shipped, summed over shards and replicas
	LagBytesMax  int64   // largest observed ship lag across shards
	AckRTTs      int64   // window ack round trips

	// Failover (replicated modes; zero on ReplNone baselines).
	KillAt        sim.Duration // kill instant, relative to terminal start
	CommitsAcked  int64        // transactions acknowledged before the kill
	TxnsRecovered int64        // committed transactions replayed on the replica
	LostTxns      int64        // acknowledged commits the replica could not recover
	LostTailBytes int64        // primary-durable bytes no replica had persisted
	ReplicaBytes  int64        // surviving log bytes (longest copy per shard)
	RestoreSim    sim.Duration // checkpoint restore on the replica boot
	ReplaySim     sim.Duration // parallel log replay on the replica boot
	TimeToServing sim.Duration // detect + restore + replay
	DigestOK      bool         // replica content == recovery of the primary's shipped prefix

	Err error
}

// DefaultFailoverModes returns the default mode axis.
func DefaultFailoverModes() []stats.ReplMode {
	return []stats.ReplMode{stats.ReplNone, stats.ReplAsync, stats.ReplSync, stats.ReplQuorum}
}

// RunFailover executes the spec, fanning (point, mode) pairs out across the
// worker pool; every pair runs its steady-state and crash phases in private
// environments, so parallel execution is bit-identical to serial. It
// returns the failover measurements plus the steady-state sweep results,
// point-major and mode-minor.
func (s FailoverSpec) RunFailover(opt Options) ([]FailoverResult, []Result) {
	modes := s.Modes
	if len(modes) == 0 {
		modes = DefaultFailoverModes()
	}
	var pts []Point
	for _, p := range s.Points() {
		for _, m := range modes {
			p.Repl, p.Replicas = m, 0
			if m != stats.ReplNone {
				p.Replicas = s.Replicas
			}
			pts = append(pts, p)
		}
	}
	out := make([]FailoverResult, len(pts))
	steady := make([]Result, len(pts))
	ForEach(len(pts), opt.Parallel, func(i int) {
		pts[i].Index = i
		out[i], steady[i] = runFailoverPoint(pts[i])
	})
	// Overhead against the same point's unreplicated baseline — host-side
	// arithmetic over the finished grid, identical in any execution order.
	for block := 0; block < len(out); block += len(modes) {
		rows := out[block : block+len(modes)]
		for _, base := range rows {
			if base.Mode != stats.ReplNone || base.Err != nil || base.P50 <= 0 {
				continue
			}
			for i := range rows {
				if rows[i].Mode != stats.ReplNone && rows[i].Err == nil {
					rows[i].OverheadP50 = float64(rows[i].P50) / float64(base.P50)
				}
			}
			break
		}
	}
	return out, steady
}

// runFailoverPoint measures one point at its replication mode: a
// steady-state run, then — for replicated modes — a faulted crash run and
// the replica's failover boot.
func runFailoverPoint(p Point) (FailoverResult, Result) {
	res := FailoverResult{Sockets: p.Sockets, Mode: p.Repl, Replicas: p.Replicas, ShardedLog: p.ShardedLog,
		Engine: p.Engine.Name, Workload: p.Workload.Name, DigestOK: true}

	// --- Steady state: the replication tax under normal operation.
	sr := p.Run()
	if sr.Err != nil {
		res.Err = sr.Err
		return res, sr
	}
	res.TPS = sr.Res.TPS
	res.P50 = sr.Res.Latency.Percentile(50)
	res.P95 = sr.Res.Latency.Percentile(95)
	for _, rst := range sr.Res.Repl {
		res.ShippedBytes += rst.ShippedBytes
		res.AckRTTs += rst.AckRTTs
		if rst.LagBytesMax > res.LagBytesMax {
			res.LagBytesMax = rst.LagBytesMax
		}
	}
	if p.Repl == stats.ReplNone {
		return res, sr
	}

	// --- Crash phase: populate, checkpoint sharp, run under the fault
	// plan, stop the world at the primary kill.
	wl, mk, err := p.build()
	if err != nil {
		res.Err = err
		return res, sr
	}
	s := core.Open(wl, p.Seed, mk)
	defer s.Close()
	rs := s.Eng.LogSet().Replication()
	if rs == nil {
		res.Err = fmt.Errorf("engine %s built no replication machinery", p.Engine.Name)
		return res, sr
	}
	faultR := s.Split()
	meta, err := s.Checkpoint()
	if err != nil {
		res.Err = err
		return res, sr
	}
	// The fault plan covers the measurement window; its kill is the run's
	// stopping point and its windowed faults drive the ReplicaSet hooks.
	startT := s.Env.Now()
	plan := sim.NewFaultPlan(faultR, startT.Add(p.Warmup), startT.Add(p.Warmup).Add(p.Measure), rs.Replicas(), true)
	plan.Schedule(s.Env,
		func(f sim.Fault) {
			switch f.Kind {
			case sim.FaultLinkLag:
				rs.SetLagFactor(f.Factor)
			case sim.FaultLinkPartition:
				rs.SetLinkDown(true)
			case sim.FaultReplicaStall:
				rs.SetStalled(f.Replica, true)
			}
		},
		func(f sim.Fault) {
			switch f.Kind {
			case sim.FaultLinkLag:
				rs.SetLagFactor(1)
			case sim.FaultLinkPartition:
				rs.SetLinkDown(false)
			case sim.FaultReplicaStall:
				rs.SetStalled(f.Replica, false)
			}
		})
	s.Start(p.Terminals, nil, nil)
	killT, _ := plan.KillTime()
	if err := s.RunTo(killT); err != nil {
		res.Err = err
		return res, sr
	}
	res.KillAt = killT.Sub(startT)
	res.CommitsAcked = s.Eng.Counters().Get("commits")
	img := s.Crash(meta)
	replicaLogs, replicaBytes, lostTail := rs.CrashImage()
	res.Shards = len(replicaLogs)
	res.ReplicaBytes = replicaBytes
	res.LostTailBytes = lostTail
	// Every replica copy must be a literal byte prefix of its primary
	// shard — the property the whole failover guarantee rests on.
	truncated := make([][]byte, len(img.Logs))
	for sh, primary := range img.Logs {
		if len(replicaLogs[sh]) > len(primary) || !bytes.Equal(replicaLogs[sh], primary[:len(replicaLogs[sh])]) {
			res.Err = fmt.Errorf("shard %d replica copy is not a prefix of the primary stream", sh)
			return res, sr
		}
		truncated[sh] = primary[:len(replicaLogs[sh])]
	}

	// --- Failover: the replica detects the kill and boots through measured
	// parallel recovery.
	trees, st, _, err := core.Boot(img, replicaLogs, true, core.DefaultDetect)
	if err != nil {
		res.Err = err
		return res, sr
	}
	res.TxnsRecovered = st.Txns
	if lost := res.CommitsAcked - res.TxnsRecovered; lost > 0 {
		res.LostTxns = lost
	}
	res.RestoreSim = st.Restore
	res.ReplaySim = st.Replay
	res.TimeToServing = core.DefaultDetect + st.SimTime

	// Oracles: recovering the primary's shipped prefix directly must yield
	// the content the replica serves, and the modes that wait for replica
	// acknowledgements must not lose an acknowledged commit.
	oracle, _, _, err := core.Boot(img, truncated, true, 0)
	if err != nil {
		res.Err = err
		return res, sr
	}
	got, want := core.ContentDigest(trees), core.ContentDigest(oracle)
	res.DigestOK = got == want
	switch {
	case !res.DigestOK:
		res.Err = fmt.Errorf("replica content diverged from the primary's shipped prefix: %s vs %s", got, want)
	case res.LostTxns > 0 && (p.Repl == stats.ReplSync || p.Repl == stats.ReplQuorum):
		res.Err = fmt.Errorf("%s lost %d of %d acknowledged commits", p.Repl, res.LostTxns, res.CommitsAcked)
	}
	return res, sr
}

// failoverJSON is the flat per-point record of the document's failover
// section.
type failoverJSON struct {
	Name          string  `json:"name"`
	Workload      string  `json:"workload"`
	Engine        string  `json:"engine"`
	Sockets       int     `json:"sockets"`
	Shards        int     `json:"shards,omitempty"`
	Mode          string  `json:"replication"`
	Replicas      int     `json:"replicas,omitempty"`
	ShardedLog    bool    `json:"sharded_log,omitempty"`
	TPS           float64 `json:"tps"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	OverheadP50   float64 `json:"p50_overhead,omitempty"`
	ShippedBytes  int64   `json:"shipped_bytes,omitempty"`
	LagBytesMax   int64   `json:"lag_bytes_max,omitempty"`
	AckRTTs       int64   `json:"ack_rtts,omitempty"`
	KillAtUs      float64 `json:"kill_at_us,omitempty"`
	CommitsAcked  int64   `json:"commits_acked,omitempty"`
	TxnsRecovered int64   `json:"txns_recovered,omitempty"`
	LostTxns      int64   `json:"lost_txns"`
	LostTailBytes int64   `json:"lost_tail_bytes"`
	ReplicaBytes  int64   `json:"replica_bytes,omitempty"`
	RestoreUs     float64 `json:"restore_us,omitempty"`
	ReplayUs      float64 `json:"replay_us,omitempty"`
	ServingUs     float64 `json:"time_to_serving_us,omitempty"`
	DigestOK      bool    `json:"digest_ok"`
	Error         string  `json:"error,omitempty"`
}

func (r FailoverResult) json() failoverJSON {
	jr := failoverJSON{
		Name:          fmt.Sprintf("fig-failover/%s/%s/x%d/%s", r.Workload, r.Engine, r.Sockets, r.Mode),
		Workload:      r.Workload,
		Engine:        r.Engine,
		Sockets:       r.Sockets,
		Shards:        r.Shards,
		Mode:          r.Mode.String(),
		Replicas:      r.Replicas,
		ShardedLog:    r.ShardedLog,
		TPS:           r.TPS,
		P50us:         r.P50.Microseconds(),
		P95us:         r.P95.Microseconds(),
		OverheadP50:   r.OverheadP50,
		ShippedBytes:  r.ShippedBytes,
		LagBytesMax:   r.LagBytesMax,
		AckRTTs:       r.AckRTTs,
		KillAtUs:      r.KillAt.Microseconds(),
		CommitsAcked:  r.CommitsAcked,
		TxnsRecovered: r.TxnsRecovered,
		LostTxns:      r.LostTxns,
		LostTailBytes: r.LostTailBytes,
		ReplicaBytes:  r.ReplicaBytes,
		RestoreUs:     r.RestoreSim.Microseconds(),
		ReplayUs:      r.ReplaySim.Microseconds(),
		ServingUs:     r.TimeToServing.Microseconds(),
		DigestOK:      r.DigestOK,
	}
	if r.Err != nil {
		jr.Error = r.Err.Error()
	}
	return jr
}
