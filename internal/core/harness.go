package core

import (
	"fmt"
	"sort"

	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
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
	// Populate loads the initial database through load, which copies key
	// and val: both need only stay valid until load returns.
	Populate(load func(table uint16, key, val []byte), r *sim.Rand)
	// NextTxn draws one transaction from the mix from the stream r. The
	// logic may be run, and re-run by the engine's retries, until the next
	// NextTxn on the same r: a workload may keep each stream's inputs and
	// scratch and reuse them then, so a stream runs one transaction at a
	// time (a terminal draws, submits, then draws again). A value the logic
	// passes to Update or Insert may be such a buffer: the store copies it.
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

// sampleSocket builds one telemetry sample for socket.
func sampleSocket(env *sim.Env, eng Engine, socket int, now sim.Time) obs.Sample {
	pl := eng.Platform()
	g := eng.ObsGauges(socket)
	smp := obs.Sample{At: now, Socket: socket,
		QueueDepth: g.QueueDepth, Deferred: g.Deferred, LockWaiters: g.LockWaiters,
		LogBacklog: g.LogBacklog, ReplLag: g.ReplLag}
	smp.Instructions, smp.DRAMBytes, smp.LLCHits, smp.LLCMisses = pl.SocketCounters(socket)
	smp.EgressBusy = pl.EgressBusy(socket)
	smp.Events = env.Executed()
	return smp
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%-22s %-6s %9.0f tps  %8.2f uJ/txn  p50=%v p95=%v",
		r.Engine, r.Workload, r.TPS, r.JoulesPerTxn*1e6,
		r.Latency.Percentile(50), r.Latency.Percentile(95))
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

// snapshot is every cumulative counter Run windows, read at one instant.
type snapshot struct {
	an              stats.Anatomy // engine-level (replication ack waits)
	bd              stats.Breakdown
	pl              platform.Snapshot
	commits, aborts int64
	log             []stats.LogShardStats
	repl            []stats.ReplicationStats
	scan            stats.ScanStats
}

func takeSnapshot(eng Engine, engAn *stats.Anatomy, arun AnalyticsRun) snapshot {
	sn := snapshot{
		an:      *engAn,
		bd:      *eng.Breakdown(),
		pl:      eng.Platform().Snapshot(),
		commits: eng.Counters().Get("commits"),
		aborts:  eng.Counters().Get("aborts.user"),
		log:     eng.LogSet().Stats(),
	}
	if rs := eng.LogSet().Replication(); rs != nil {
		sn.repl = rs.Stats()
	}
	if arun != nil {
		sn.scan = arun.Snapshot()
	}
	return sn
}

// drainGrace bounds how long in-flight transactions get to finish after the
// measurement window closes.
const drainGrace = 50 * sim.Millisecond

// Run executes one full measurement: open a Session (build, populate,
// warm), attach the observers and the analytical half, run the terminals
// through warm-up and the window, then drain. The returned Result covers
// only the measurement window.
func Run(cfg RunConfig, wl Workload, mk func(env *sim.Env) Engine) (*Result, error) {
	s := Open(wl, cfg.Seed, mk)
	defer s.Close()
	env, eng := s.Env, s.Eng
	pl := eng.Platform()

	// Flight recorder: spans into one ring. Attached before any event runs;
	// strictly out of band (see RunConfig.Obs). SetRecorder is an optional
	// Engine capability: only the data-oriented engines record partition and
	// overlay spans.
	var rec *obs.Recorder
	if cfg.Obs.TraceOn() {
		rec = obs.NewRecorder(1, cfg.Obs.Cap())
		if sr, ok := eng.(interface{ SetRecorder(*obs.Recorder) }); ok {
			sr.SetRecorder(rec)
		}
	}
	// Engine-level anatomy (replication ack waits) accumulates from run
	// start; the window snapshots below difference it. The recorder hook
	// rides along when tracing. Always wired: recording is a host-side
	// histogram update per commit-path ack wait.
	engAn := &stats.Anatomy{}
	if rs := eng.LogSet().Replication(); rs != nil {
		rs.SetObs(rec.Shard(0), engAn)
	}
	// Telemetry: every socket sampled on a fixed simulated-time tick, fired
	// from the kernel's clock-advance path (no events scheduled).
	var tel *obs.Telemetry
	if cfg.Obs.MetricsOn() {
		tel = obs.NewTelemetry(pl.NumSockets(), cfg.Obs.Tick())
		env.SetSampler(tel.Tick, func(now sim.Time) {
			for sock := 0; sock < pl.NumSockets(); sock++ {
				tel.Append(sampleSocket(env, eng, sock, now))
			}
		})
	}
	// The analytical half attaches after population and warmup, before any
	// terminal exists, on its own split stream: a nil Analytics consumes no
	// randomness and schedules no events, keeping pure-OLTP runs
	// bit-identical to the pre-HTAP harness.
	var arun AnalyticsRun
	if cfg.Analytics != nil {
		arun = cfg.Analytics.Attach(env, eng, s.Split())
		arun.SetRecorder(rec.Shard(0))
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
	var start, end snapshot
	env.At(warmT, func() { start = takeSnapshot(eng, engAn, arun) })
	env.At(endT, func() { end = takeSnapshot(eng, engAn, arun) })
	s.Start(cfg.Terminals, &Window{From: warmT, To: endT, Res: res}, rec)
	if arun != nil {
		arun.Start(&s.stop)
	}

	if err := s.RunTo(endT); err != nil {
		return nil, err
	}
	// Drain: let in-flight transactions finish within a bounded grace
	// period (background daemons tick forever, so an unbounded Run would
	// never return), then stop daemons and let the event queue empty.
	s.Stop()
	if err := s.RunTo(endT + sim.Time(drainGrace)); err != nil {
		return nil, err
	}
	if arun != nil {
		arun.Close()
	}
	eng.Close()
	if err := env.Run(); err != nil {
		return nil, err
	}

	res.Commits = end.commits - start.commits
	res.Aborts = end.aborts - start.aborts
	res.TPS = sim.PerSecond(res.Commits, cfg.Measure)
	res.BD = end.bd.Sub(&start.bd)
	res.Energy = pl.Energy(start.pl, end.pl)
	if res.Commits > 0 {
		res.JoulesPerTxn = res.Energy.Total() / float64(res.Commits)
	}
	res.Cache = pl.CacheStats()
	for i := range end.log {
		res.LogShards = append(res.LogShards, end.log[i].Sub(start.log[i]))
	}
	for i := range end.repl { // nil when unreplicated
		res.Repl = append(res.Repl, end.repl[i].Sub(start.repl[i]))
	}
	if arun != nil {
		sc := end.scan.Sub(start.scan)
		res.Scan = &sc
	}
	// Latency anatomy: the terminals' in-window phase samples, plus the
	// windowed engine-level replication-wait histogram.
	windowedAn := end.an.Sub(&start.an)
	res.Anatomy.Merge(&windowedAn)
	res.Trace = rec
	res.Metrics = tel
	res.Events = env.Executed()
	res.Switches = env.Switches()
	return res, nil
}
