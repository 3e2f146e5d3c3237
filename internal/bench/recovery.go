package bench

import (
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
)

// RecoveryResult is one crash/recovery measurement.
type RecoveryResult struct {
	Sockets    int
	Shards     int
	ShardedLog bool
	Engine     string
	Workload   string

	Commits  int64 // transactions acknowledged before the crash
	LogBytes int64 // durable log bytes replayed (sum over shards)
	Txns     int64 // committed transactions recovered from the log tail
	Records  int64 // data records replayed

	RestoreSim     sim.Duration // checkpoint-image scan (shared device, serial)
	SerialReplay   sim.Duration // log replay, one process walking all shards
	ParallelReplay sim.Duration // log replay, one process per shard
	TotalSim       sim.Duration // the parallel boot end to end
	Joules         float64      // energy of the parallel recovery boot
	Rows           int64        // rows in the recovered tables

	Err error
}

// RunRecovery executes the fig-recovery experiment over the grid's points:
// each one runs its workload for the warmup and measurement windows on its
// machine, crashes it cold (no drain, no clean shutdown — whatever the log
// devices hold is the crash image), then boots a fresh machine and replays
// the shards, serially and in parallel, under the cost model. On a
// sharded-log machine N log shards replay from N devices on N sockets, so
// parallel recovery is the durability subsystem's read-side payoff. Every
// point runs in private environments, so parallel execution is
// bit-identical to serial.
func (g Grid) RunRecovery(opt Options) []RecoveryResult {
	points := g.Points()
	out := make([]RecoveryResult, len(points))
	ForEach(len(points), opt.Parallel, func(i int) { out[i] = runRecoveryPoint(points[i]) })
	return out
}

// runRecoveryPoint is one crash + two recovery boots: populate, checkpoint
// sharp, open the terminals for run, crash cold, then boot the crash image
// serially and in parallel. Its oracle: both boots recover the same
// content, no acknowledged commit is lost, and the log holds at most one
// unacknowledged commit per terminal (the engine acknowledges a commit only
// after its durable point, so a terminal can have one durable commit in
// flight when the machine dies).
func runRecoveryPoint(p Point) RecoveryResult {
	res := RecoveryResult{Sockets: p.Sockets, ShardedLog: p.ShardedLog,
		Engine: p.Engine.Name, Workload: p.Workload.Name}
	wl, mk, err := p.build()
	if err != nil {
		res.Err = err
		return res
	}
	s := core.Open(wl, p.Seed, mk)
	defer s.Close()
	meta, err := s.Checkpoint()
	if err != nil {
		res.Err = err
		return res
	}
	s.Start(p.Terminals, nil, nil)
	if err := s.RunTo(s.Env.Now().Add(p.Warmup + p.Measure)); err != nil {
		res.Err = err
		return res
	}
	res.Commits = s.Eng.Counters().Get("commits")
	img := s.Crash(meta)
	res.Shards = len(img.Logs)

	serialTrees, serial, _, err := core.Boot(img, img.Logs, false, 0)
	if err != nil {
		res.Err = err
		return res
	}
	trees, par, joules, err := core.Boot(img, img.Logs, true, 0)
	if err != nil {
		res.Err = err
		return res
	}
	if d1, d2 := core.ContentDigest(serialTrees), core.ContentDigest(trees); d1 != d2 {
		res.Err = fmt.Errorf("serial and parallel replay diverged: %s vs %s", d1, d2)
		return res
	}
	switch {
	case par.Txns < res.Commits:
		res.Err = fmt.Errorf("recovered %d transactions, %d acknowledged: acknowledged commits lost", par.Txns, res.Commits)
		return res
	case par.Txns-res.Commits > int64(p.Terminals):
		res.Err = fmt.Errorf("recovered %d transactions, %d acknowledged: more than one unacknowledged per terminal", par.Txns, res.Commits)
		return res
	}
	res.LogBytes = par.LogBytes
	res.Txns = par.Txns
	res.Records = par.Records
	res.RestoreSim = par.Restore
	res.SerialReplay = serial.Replay
	res.ParallelReplay = par.Replay
	res.TotalSim = par.SimTime
	res.Joules = joules
	for _, tree := range trees {
		res.Rows += int64(tree.Size())
	}
	return res
}

// recoveryJSON is the flat per-point record of the document's recovery
// section.
type recoveryJSON struct {
	Name             string  `json:"name"`
	Workload         string  `json:"workload"`
	Engine           string  `json:"engine"`
	Sockets          int     `json:"sockets"`
	Shards           int     `json:"shards"`
	ShardedLog       bool    `json:"sharded_log"`
	Commits          int64   `json:"commits_before_crash"`
	LogBytes         int64   `json:"log_bytes"`
	Txns             int64   `json:"txns_recovered"`
	Records          int64   `json:"records_replayed"`
	RestoreUs        float64 `json:"restore_us"`
	SerialReplayUs   float64 `json:"serial_replay_us"`
	ParallelReplayUs float64 `json:"parallel_replay_us"`
	TotalUs          float64 `json:"total_us"`
	Joules           float64 `json:"joules"`
	Rows             int64   `json:"rows"`
	Error            string  `json:"error,omitempty"`
}

func (r RecoveryResult) json() recoveryJSON {
	jr := recoveryJSON{
		Name:             fmt.Sprintf("fig-recovery/%s/%s/x%d", r.Workload, r.Engine, r.Sockets),
		Workload:         r.Workload,
		Engine:           r.Engine,
		Sockets:          r.Sockets,
		Shards:           r.Shards,
		ShardedLog:       r.ShardedLog,
		Commits:          r.Commits,
		LogBytes:         r.LogBytes,
		Txns:             r.Txns,
		Records:          r.Records,
		RestoreUs:        r.RestoreSim.Microseconds(),
		SerialReplayUs:   r.SerialReplay.Microseconds(),
		ParallelReplayUs: r.ParallelReplay.Microseconds(),
		TotalUs:          r.TotalSim.Microseconds(),
		Joules:           r.Joules,
		Rows:             r.Rows,
	}
	if r.ShardedLog {
		jr.Name += "/slog"
	}
	if r.Err != nil {
		jr.Error = r.Err.Error()
	}
	return jr
}
