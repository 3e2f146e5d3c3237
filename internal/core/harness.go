package core

import (
	"fmt"
	"sort"

	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

// Workload is a benchmark: schema, population, partitioning and a
// transaction mix.
type Workload interface {
	// Name identifies the workload in tables.
	Name() string
	// Tables returns the schema.
	Tables() []TableDef
	// Scheme returns the partitioning for the given partition count.
	Scheme(partitions int) PartitionScheme
	// Populate loads the initial database through load.
	Populate(load func(table uint16, key, val []byte), r *sim.Rand)
	// NextTxn draws one transaction from the mix.
	NextTxn(r *sim.Rand) (name string, logic TxnLogic)
}

// RunConfig shapes one measurement.
type RunConfig struct {
	// Terminals is the number of closed-loop clients.
	Terminals int
	// Warmup is discarded simulated time before the measurement window.
	Warmup sim.Duration
	// Measure is the measurement window length.
	Measure sim.Duration
	// Drain bounds how long in-flight transactions get to finish after
	// the window closes (0 uses a default).
	Drain sim.Duration
	// Seed drives population and the transaction mix.
	Seed uint64
	// Analytics, when non-nil, attaches an analytical subsystem to the run
	// (the HTAP mixed workloads). Nil leaves the run bit-identical to the
	// pre-HTAP harness.
	Analytics Analytics
	// Obs selects the flight recorder's faces (span tracing, telemetry
	// sampling). Observation is strictly out of band: enabling it changes
	// no simulated time, energy, randomness or event order, so every
	// simulated result is bit-identical with it on or off. Nil attaches
	// nothing. The per-transaction latency anatomy is always collected; it
	// needs no option.
	Obs *obs.Options
}

// DefaultRunConfig returns a config suitable for the figure generators.
func DefaultRunConfig() RunConfig {
	return RunConfig{Terminals: 64, Warmup: 30 * sim.Millisecond, Measure: 100 * sim.Millisecond, Seed: 42}
}

// Result is everything one run measures.
type Result struct {
	Engine   string
	Workload string

	Commits int64 // committed transactions in the window
	Aborts  int64 // user aborts in the window
	TPS     float64

	Energy       platform.EnergyReport
	JoulesPerTxn float64

	BD        stats.Breakdown  // CPU component times in the window
	Latency   *stats.Histogram // committed-transaction latency
	TxnCounts map[string]int64 // per-transaction-type completions
	// TxnRetries is, per transaction type, how many times the engine re-ran
	// the in-window transactions TxnCounts counts (Terminal.Retries summed).
	// Like Anatomy it is deliberately not part of the sweep digest.
	TxnRetries map[string]int64
	Cache      platform.CacheStats

	// LogShards is per-log-shard activity in the window (bytes written,
	// syncs, arbitration epochs per socket); one entry for a central log.
	LogShards []stats.LogShardStats

	// Scan is the analytical half's window statistics when the run attached
	// an Analytics subsystem; nil on pure-OLTP runs.
	Scan *stats.ScanStats

	// Repl is per-log-shard shipping activity in the window when the engine
	// replicates its log; nil on unreplicated runs.
	Repl []stats.ReplicationStats

	// Events is the kernel event count for the whole run (populate through
	// drain) — the numerator for host events/sec reporting. It is simulated
	// state and deliberately not part of the sweep digest.
	Events uint64

	// Switches is how many of those events resumed a process's coroutine;
	// the rest ran inline in the dispatch loop at about a third of the host
	// cost. It depends on how the engines chain their blocking calls into
	// kernel scripts, not on the simulated schedule, and is a host-cost
	// indicator outside the sweep digest like Events.
	Switches uint64

	// Anatomy is the per-phase latency breakdown (queue, lock, exec,
	// cross-shard, durability, replication) of committed in-window
	// transactions: per-terminal recordings merged in terminal-ID order,
	// plus the windowed engine-level replication-wait histogram. Always
	// collected; deliberately not part of the sweep digest.
	Anatomy stats.Anatomy

	// Trace is the flight recorder holding the run's spans when
	// RunConfig.Obs enabled tracing; nil otherwise. Export with
	// obs.WriteTrace.
	Trace *obs.Recorder

	// Metrics is the telemetry time series when RunConfig.Obs enabled
	// sampling; nil otherwise.
	Metrics *obs.Telemetry
}

// gaugeReader is implemented by engines exposing instantaneous queue, lock
// and log gauges to the telemetry sampler.
type gaugeReader interface {
	ObsGauges(socket int) obs.Gauges
}

// sampleSocket builds one telemetry sample for socket.
func sampleSocket(env *sim.Env, pl *platform.Platform, gr gaugeReader, socket int, now sim.Time) obs.Sample {
	smp := obs.Sample{At: now, Socket: socket}
	if gr != nil {
		g := gr.ObsGauges(socket)
		smp.QueueDepth, smp.Deferred, smp.LockWaiters = g.QueueDepth, g.Deferred, g.LockWaiters
		smp.LogBacklog, smp.ReplLag = g.LogBacklog, g.ReplLag
	}
	smp.Instructions, smp.DRAMBytes, smp.LLCHits, smp.LLCMisses = pl.SocketCounters(socket)
	smp.EgressBusy = pl.EgressBusy(socket)
	smp.Events, smp.Windows, smp.Stalls = env.ShardCounters(0)
	return smp
}

// logStatser is implemented by engines that report per-shard log counters.
type logStatser interface {
	LogStats() []stats.LogShardStats
}

// replStatser is implemented by engines that ship their log to replicas; a
// nil slice means replication is off.
type replStatser interface {
	ReplStats() []stats.ReplicationStats
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%-22s %-6s %9.0f tps  %8.2f uJ/txn  p50=%v p95=%v",
		r.Engine, r.Workload, r.TPS, r.JoulesPerTxn*1e6,
		r.Latency.Percentile(50), r.Latency.Percentile(95))
}

// BreakdownTable renders the Figure 3-style component share table.
func (r *Result) BreakdownTable() *stats.Table {
	t := stats.NewTable("component", ">time", ">share")
	total := r.BD.Total()
	for _, c := range stats.Components() {
		share := 0.0
		if total > 0 {
			share = float64(r.BD.Get(c)) / float64(total) * 100
		}
		t.Row(c.String(), r.BD.Get(c).String(), fmt.Sprintf("%.1f%%", share))
	}
	return t
}

// TxnNames returns the observed transaction types in sorted order.
func (r *Result) TxnNames() []string {
	names := make([]string, 0, len(r.TxnCounts))
	for n := range r.TxnCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RetriesPerTxn is the engine's re-attempts per in-window transaction over
// all types (TxnRetries over TxnCounts).
func (r *Result) RetriesPerTxn() float64 {
	var retries, txns int64
	for name, n := range r.TxnCounts {
		txns += n
		retries += r.TxnRetries[name]
	}
	if txns == 0 {
		return 0
	}
	return float64(retries) / float64(txns)
}

// Run executes one full measurement: build the engine on a fresh
// environment, populate, warm up, measure, and drain. The returned Result
// covers only the measurement window.
func Run(cfg RunConfig, wl Workload, mk func(env *sim.Env) Engine) (*Result, error) {
	env := sim.NewEnv()
	// Reap processes left parked on every exit path: a process panic makes
	// RunUntil return early with workers still blocked on queues and locks,
	// and even a clean run may leave daemons parked on primitives nobody
	// will signal again. Without this, every errored run leaks goroutines.
	defer env.Close()
	eng := mk(env)
	pl := eng.Platform()

	// Flight recorder: spans into one ring per kernel shard (the engines run
	// on shard 0). Attached before any event runs; strictly out of band (see
	// RunConfig.Obs).
	var rec *obs.Recorder
	if cfg.Obs.TraceOn() {
		rec = obs.NewRecorder(env.NumShards(), cfg.Obs.Cap())
		if sr, ok := eng.(interface{ SetRecorder(*obs.Recorder) }); ok {
			sr.SetRecorder(rec)
		}
	}
	// Engine-level anatomy (replication ack waits) accumulates from run
	// start; the snapshot closures below window it. The recorder hook rides
	// along when tracing. Always wired: recording is a host-side histogram
	// update per commit-path ack wait.
	engAn := &stats.Anatomy{}
	if rp, ok := eng.(interface{ Replicator() *wal.ReplicaSet }); ok {
		if rs := rp.Replicator(); rs != nil {
			rs.SetObs(rec.Shard(0), engAn)
		}
	}
	// Telemetry: every socket sampled on a fixed simulated-time tick, fired
	// from the kernel's clock-advance path (no events scheduled).
	var tel *obs.Telemetry
	if cfg.Obs.MetricsOn() {
		tel = obs.NewTelemetry(pl.NumSockets(), cfg.Obs.Tick())
		gr, _ := eng.(gaugeReader)
		env.SetSampler(0, tel.Tick, func(now sim.Time) {
			for s := 0; s < pl.NumSockets(); s++ {
				tel.Append(sampleSocket(env, pl, gr, s, now))
			}
		})
	}

	root := sim.NewRand(cfg.Seed)
	wl.Populate(eng.Load, root.Split())
	if warmer, ok := eng.(interface{ Warm() }); ok {
		warmer.Warm()
	}

	// The analytical half attaches after population and warmup, before any
	// terminal exists, on its own split stream: a nil Analytics consumes no
	// randomness and schedules no events, keeping pure-OLTP runs
	// bit-identical to the pre-HTAP harness.
	var arun AnalyticsRun
	if cfg.Analytics != nil {
		arun = cfg.Analytics.Attach(env, eng, root.Split())
		if rec != nil {
			if sr, ok := arun.(interface{ SetRecorder(*obs.ShardRec) }); ok {
				sr.SetRecorder(rec.Shard(0))
			}
		}
	}

	warmT := sim.Time(cfg.Warmup)
	endT := warmT + sim.Time(cfg.Measure)

	// The latency reservoir (one flat histogram) and the per-type counts
	// are preallocated here, once per run — nothing on the per-transaction
	// recording path allocates.
	res := &Result{
		Engine:     eng.Name(),
		Workload:   wl.Name(),
		Latency:    &stats.Histogram{},
		TxnCounts:  make(map[string]int64, 16),
		TxnRetries: make(map[string]int64), // most runs never retry: no buckets up front
	}

	var startBD, endBD stats.Breakdown
	var startSnap, endSnap platform.Snapshot
	var startCommits, endCommits, startAborts, endAborts int64
	var startLog, endLog []stats.LogShardStats
	var startRepl, endRepl []stats.ReplicationStats
	var startScan, endScan stats.ScanStats
	var startEngAn, endEngAn stats.Anatomy
	snapStart := func() {
		startEngAn = *engAn
		startBD = *eng.Breakdown()
		startSnap = pl.Snapshot()
		startCommits = eng.Counters().Get("commits")
		startAborts = eng.Counters().Get("aborts.user")
		if ls, ok := eng.(logStatser); ok {
			startLog = ls.LogStats()
		}
		if rs, ok := eng.(replStatser); ok {
			startRepl = rs.ReplStats()
		}
		if arun != nil {
			startScan = arun.Snapshot()
		}
	}
	snapEnd := func() {
		endEngAn = *engAn
		endBD = *eng.Breakdown()
		endSnap = pl.Snapshot()
		endCommits = eng.Counters().Get("commits")
		endAborts = eng.Counters().Get("aborts.user")
		if ls, ok := eng.(logStatser); ok {
			endLog = ls.LogStats()
		}
		if rs, ok := eng.(replStatser); ok {
			endRepl = rs.ReplStats()
		}
		if arun != nil {
			endScan = arun.Snapshot()
		}
	}
	env.At(warmT, snapStart)
	env.At(endT, snapEnd)

	stop := false
	// Per-terminal anatomy, merged in terminal-ID order after the run.
	termAns := make([]stats.Anatomy, cfg.Terminals)
	termRec := rec.Shard(0)
	for i := 0; i < cfg.Terminals; i++ {
		i := i
		tr := root.Split()
		core := pl.Cores[i%len(pl.Cores)]
		an := &termAns[i]
		body := func(p *sim.Proc) {
			term := &Terminal{ID: i, P: p, Core: core, R: tr, Rec: termRec}
			for !stop {
				name, logic := wl.NextTxn(term.R)
				start := p.Now()
				committed := eng.Submit(term, logic)
				if start >= warmT && p.Now() <= endT {
					res.TxnCounts[name]++
					if term.Retries > 0 {
						res.TxnRetries[name] += int64(term.Retries)
					}
					if committed {
						res.Latency.Record(p.Now().Sub(start))
						for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
							an.Record(ph, term.Ph[ph])
						}
					}
				}
			}
		}
		env.Spawn(fmt.Sprintf("terminal%d", i), body)
	}
	if arun != nil {
		arun.Start(&stop)
	}

	if err := env.RunUntil(endT); err != nil {
		return nil, err
	}
	// Drain: let in-flight transactions finish within a bounded grace
	// period (background daemons tick forever, so an unbounded Run would
	// never return), then stop daemons and let the event queue empty.
	stop = true
	drain := cfg.Drain
	if drain <= 0 {
		drain = 50 * sim.Millisecond
	}
	if err := env.RunUntil(endT + sim.Time(drain)); err != nil {
		return nil, err
	}
	if arun != nil {
		arun.Close()
	}
	eng.Close()
	if err := env.Run(); err != nil {
		return nil, err
	}

	res.Commits = endCommits - startCommits
	res.Aborts = endAborts - startAborts
	res.TPS = sim.PerSecond(res.Commits, cfg.Measure)
	res.BD = endBD.Sub(&startBD)
	res.Energy = pl.Energy(startSnap, endSnap)
	if res.Commits > 0 {
		res.JoulesPerTxn = res.Energy.Total() / float64(res.Commits)
	}
	res.Cache = pl.CacheStats()
	if len(endLog) == len(startLog) {
		for i := range endLog {
			res.LogShards = append(res.LogShards, endLog[i].Sub(startLog[i]))
		}
	}
	if len(endRepl) > 0 && len(endRepl) == len(startRepl) {
		for i := range endRepl {
			res.Repl = append(res.Repl, endRepl[i].Sub(startRepl[i]))
		}
	}
	if arun != nil {
		sc := endScan.Sub(startScan)
		res.Scan = &sc
	}
	// Latency anatomy: per-terminal phase histograms merged in terminal-ID
	// order, then the windowed engine-level replication-wait histogram.
	for i := range termAns {
		res.Anatomy.Merge(&termAns[i])
	}
	windowedAn := endEngAn.Sub(&startEngAn)
	res.Anatomy.Merge(&windowedAn)
	res.Trace = rec
	res.Metrics = tel
	res.Events = env.Executed()
	res.Switches = env.Switches()
	return res, nil
}
