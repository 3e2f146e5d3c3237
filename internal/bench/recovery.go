package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
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
	// DORA — the software sharded log). The engine must be checkpointable.
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

// checkpointable is the engine surface the crash harness needs.
type checkpointable interface {
	core.Engine
	TableSets() []map[uint16]*btree.Tree
	DiskManager() *storage.DiskManager
	LogSet() *wal.LogSet
}

// RunRecovery executes the spec, fanning points out across the worker pool.
// Each point runs its crash phase and both recovery boots in private
// environments, so parallel execution is bit-identical to serial.
func (s RecoverySpec) RunRecovery(opt Options) []RecoveryResult {
	sockets := s.Sockets
	if len(sockets) == 0 {
		sockets = DefaultScalingSockets()
	}
	engine := s.Engine
	if engine == nil {
		engine = func(cfg *platform.Config, partitions, window int) EngineSpec {
			return DORAOn(cfg, partitions)
		}
	}
	tps := s.TerminalsPerSocket
	if tps <= 0 {
		tps = 32
	}
	window := s.Window
	if window <= 0 {
		window = 8
	}
	seed := s.Seed
	if seed == 0 {
		seed = core.DefaultRunConfig().Seed
	}
	warmup, measure := s.Warmup, s.Measure
	if warmup <= 0 {
		warmup = core.DefaultRunConfig().Warmup
	}
	if measure <= 0 {
		measure = core.DefaultRunConfig().Measure
	}

	out := make([]RecoveryResult, len(sockets))
	ForEach(len(sockets), opt.Parallel, func(i int) {
		n := sockets[i]
		cfg := platform.HC2Scaled(n)
		cfg.LogDevPerSocket = s.ShardedLog
		pps := s.PartitionsPerSocket
		if pps <= 0 {
			pps = cfg.Cores
		}
		wl := s.Workload(n)
		spec := engine(cfg, pps*n, window)
		out[i] = runRecoveryPoint(cfg, spec, wl, tps*n, seed, warmup, measure)
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

// runRecoveryPoint is one crash + two recovery boots.
func runRecoveryPoint(cfg *platform.Config, spec EngineSpec, wlSpec WorkloadSpec, terminals int, seed uint64, warmup, measure sim.Duration) RecoveryResult {
	res := RecoveryResult{Engine: spec.Name, Workload: wlSpec.Name}

	// --- Crash phase: populate, checkpoint sharp, run the window, stop cold.
	env := sim.NewEnv()
	defer env.Close()
	wl := wlSpec.Make()
	eng := spec.Make(env, wl)
	ck, ok := eng.(checkpointable)
	if !ok {
		res.Err = fmt.Errorf("engine %s is not checkpointable", spec.Name)
		return res
	}
	root := sim.NewRand(seed)
	wl.Populate(eng.Load, root.Split())
	if warmer, ok := eng.(interface{ Warm() }); ok {
		warmer.Warm()
	}
	// Checkpoint sharp before any terminal exists. The checkpoint's
	// simulated duration is not known up front, and engine daemons tick
	// forever (an unbounded Run would never return), so the host steps the
	// environment in adaptive chunks until the checkpointer reports done:
	// chunks double while no event lands inside one (RunUntil never
	// advances the clock past the last executed event) and reset once
	// progress resumes. Only idle daemons share the clock with the
	// checkpointer here, so overshooting its completion instant is free.
	var meta core.CheckpointMeta
	ckDone := false
	env.Spawn("checkpointer", func(p *sim.Proc) {
		meta = core.CheckpointAllSets(p, ck.TableSets(), ck.DiskManager(), ck.LogSet())
		ckDone = true
	})
	step := sim.Time(1 * sim.Millisecond)
	for !ckDone {
		before := env.Executed()
		if err := env.RunUntil(env.Now() + step); err != nil {
			res.Err = err
			return res
		}
		if env.Executed() == before {
			step *= 2
		} else {
			step = sim.Time(1 * sim.Millisecond)
		}
	}
	// Open the terminals for exactly warmup+measure, then crash: stop the
	// world mid-flight. No drain, no Close — staged and buffered log bytes
	// die with the machine; only the stores' durable bytes survive.
	endT := env.Now() + sim.Time(warmup) + sim.Time(measure)
	pl := eng.Platform()
	for i := 0; i < terminals; i++ {
		i := i
		tr := root.Split()
		tcore := pl.Cores[i%len(pl.Cores)]
		env.Spawn(fmt.Sprintf("terminal%d", i), func(tp *sim.Proc) {
			term := &core.Terminal{ID: i, P: tp, Core: tcore, R: tr}
			for {
				_, logic := wl.NextTxn(term.R)
				eng.Submit(term, logic)
			}
		})
	}
	if err := env.RunUntil(endT); err != nil {
		res.Err = err
		return res
	}
	res.Commits = eng.Counters().Get("commits")
	logs := ck.LogSet().Datas()
	res.Shards = len(logs)
	defs := wl.Tables()

	// --- Recovery boots: serial then parallel, each on a fresh machine.
	boot := func(parallel bool) (core.RecoveryStats, *platform.Platform, []map[uint16]*btree.Tree, error) {
		env2 := sim.NewEnv()
		defer env2.Close()
		pl2 := platform.New(env2, cfg)
		dm2 := ck.DiskManager().Rebind(pl2.Disk)
		var st core.RecoveryStats
		var recovered []map[uint16]*btree.Tree
		var err error
		env2.Spawn("recovery", func(p *sim.Proc) {
			recovered, st, err = core.RecoverMeasured(p, pl2, defs, meta, dm2, logs, parallel)
		})
		if runErr := env2.Run(); runErr != nil {
			return st, pl2, nil, runErr
		}
		return st, pl2, recovered, err
	}

	serial, _, serialSets, err := boot(false)
	if err != nil {
		res.Err = err
		return res
	}
	par, pl2, parSets, err := boot(true)
	if err != nil {
		res.Err = err
		return res
	}
	if d1, d2 := core.ContentDigestSets(serialSets), core.ContentDigestSets(parSets); d1 != d2 {
		res.Err = fmt.Errorf("serial and parallel replay diverged: %s vs %s", d1, d2)
		return res
	}
	res.LogBytes = par.LogBytes
	res.Txns = par.Txns
	res.Records = par.Records
	res.RestoreSim = par.Restore
	res.SerialReplay = serial.Replay
	res.ParallelReplay = par.Replay
	res.TotalSim = par.SimTime
	res.Joules = pl2.Energy(platform.Snapshot{}, pl2.Snapshot()).Total()
	for _, set := range parSets {
		for _, tree := range set {
			res.Rows += int64(tree.Size())
		}
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
