package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// RecoverySpec declares the fig-recovery experiment: run a workload on a
// sharded-log machine, crash it cold at the end of the measurement window
// (no drain, no clean shutdown — whatever the log devices hold is the crash
// image), then boot a fresh machine and replay the shards, serially and in
// parallel, under the cost model. The figure is recovery time and joules
// versus socket count: N log shards replay from N devices on N sockets, so
// parallel recovery is the durability subsystem's read-side payoff.
type RecoverySpec struct {
	// Sockets are the socket counts to measure (default 1, 2, 4, 8, 16).
	Sockets []int
	// Workload builds the (socket-scaled) workload for one point; required.
	Workload func(sockets int) WorkloadSpec
	// Engine builds the engine under test for one scaled config (default
	// DORA — the software sharded log).
	Engine func(cfg *platform.Config, partitions, window int) EngineSpec
	// ShardedLog gives the machine per-socket log devices (default in
	// RunRecovery callers; false measures the centralized baseline).
	ShardedLog bool

	// TerminalsPerSocket is the offered load (default 32).
	TerminalsPerSocket int
	// PartitionsPerSocket is the DORA partition count per socket (default:
	// cores per socket).
	PartitionsPerSocket int
	// Window is the bionic in-flight window (default 8).
	Window int

	Seed    uint64
	Warmup  sim.Duration
	Measure sim.Duration
}

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

// RunRecovery executes the spec, fanning points out across the worker pool.
// Each point runs its crash phase and both recovery boots in private
// environments, so parallel execution is bit-identical to serial.
func (s RecoverySpec) RunRecovery(opt Options) []RecoveryResult {
	engine := s.Engine
	if engine == nil {
		engine = doraSpec
	}
	o := scaled{sockets: s.Sockets, terminals: s.TerminalsPerSocket, partitions: s.PartitionsPerSocket,
		window: s.Window, seeds: oneSeed(s.Seed), warmup: s.Warmup, measure: s.Measure,
		shardedLog: s.ShardedLog}.resolve(DefaultScalingSockets())

	out := make([]RecoveryResult, len(o.sockets))
	ForEach(len(o.sockets), opt.Parallel, func(i int) {
		n := o.sockets[i]
		cfg, partitions := o.machine(n)
		out[i] = runRecoveryPoint(engine(cfg, partitions, o.window), s.Workload(n),
			o.terminals*n, o.seeds[0], o.warmup+o.measure)
		out[i].Sockets = n
		out[i].ShardedLog = cfg.ShardedLog()
		if opt.OnResult != nil {
			// Recovery points are not sweep Results; observers only need
			// progress, so report a husk carrying the point index.
			opt.OnResult(Result{Point: Point{Index: i, Group: "fig-recovery"}})
		}
	})
	return out
}

// runRecoveryPoint is one crash + two recovery boots: populate, checkpoint
// sharp, open the terminals for run, crash cold, then boot the crash image
// serially and in parallel. Its oracle: both boots recover the same
// content, no acknowledged commit is lost, and the log holds at most one
// unacknowledged commit per terminal (the engine acknowledges a commit only
// after its durable point, so a terminal can have one durable commit in
// flight when the machine dies).
func runRecoveryPoint(spec EngineSpec, wlSpec WorkloadSpec, terminals int, seed uint64, run sim.Duration) RecoveryResult {
	res := RecoveryResult{Engine: spec.Name, Workload: wlSpec.Name}
	wl := wlSpec.Make()
	s := core.Open(wl, seed, func(env *sim.Env) core.Engine { return spec.Make(env, wl) })
	defer s.Close()
	meta, err := s.Checkpoint()
	if err != nil {
		res.Err = err
		return res
	}
	s.Start(terminals, nil, nil)
	if err := s.RunTo(s.Env.Now() + sim.Time(run)); err != nil {
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
	case par.Txns-res.Commits > int64(terminals):
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

// RecoveryTable renders recovery results as the fig-recovery table. The
// replay speedup column is serial over parallel replay — the restore scan
// is a shared-device floor both boots pay identically.
func RecoveryTable(results []RecoveryResult) *stats.Table {
	t := stats.NewTable("workload", "engine", "log", ">sockets", ">shards",
		">log KB", ">txns", ">restore", ">ser replay", ">par replay", ">speedup", ">total", ">mJ", ">rows")
	for _, r := range results {
		if r.Err != nil {
			t.Row(r.Workload, r.Engine, logLabel(r.ShardedLog), fmt.Sprintf("%d", r.Sockets),
				"error: "+r.Err.Error(), "", "", "", "", "", "", "", "", "")
			continue
		}
		speedup := 0.0
		if r.ParallelReplay > 0 {
			speedup = float64(r.SerialReplay) / float64(r.ParallelReplay)
		}
		t.Row(r.Workload, r.Engine, logLabel(r.ShardedLog),
			fmt.Sprintf("%d", r.Sockets),
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%.0f", float64(r.LogBytes)/1024),
			fmt.Sprintf("%d", r.Txns),
			r.RestoreSim.String(),
			r.SerialReplay.String(),
			r.ParallelReplay.String(),
			fmt.Sprintf("%.2fx", speedup),
			r.TotalSim.String(),
			fmt.Sprintf("%.3f", r.Joules*1e3),
			fmt.Sprintf("%d", r.Rows))
	}
	return t
}

// recoveryJSON is the flat per-point record of the recovery JSON document.
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

// RecoveryJSON marshals recovery results as an indented
// BENCH_recovery.json-style document.
func RecoveryJSON(results []RecoveryResult) ([]byte, error) {
	doc := struct {
		Suite   string         `json:"suite"`
		Results []recoveryJSON `json:"results"`
	}{Suite: "bionicbench-recovery"}
	for _, r := range results {
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
		doc.Results = append(doc.Results, jr)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteRecoveryJSONFile writes the recovery document to path.
func WriteRecoveryJSONFile(path string, results []RecoveryResult) error {
	b, err := RecoveryJSON(results)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
