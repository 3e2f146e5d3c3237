package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
)

// recovery is what the two recovery boots of crash-recover-2s measured.
type recovery struct {
	acked     int64 // commits acknowledged before the crash
	recovered int64 // committed transactions the boots found in the log
	lost      int64 // acknowledged commits missing after recovery
	records   int64 // log records replayed by one boot
	simMs     float64
	serial    time.Duration // host wall of the serial boot
	parallel  time.Duration // host wall of the parallel boot
	sets      []map[uint16]*btree.Tree
}

// checkpointable is the engine surface the crash lifecycle needs beyond
// core.Engine.
type checkpointable interface {
	core.Engine
	TableSets() []map[uint16]*btree.Tree
	DiskManager() *storage.DiskManager
	LogSet() *wal.LogSet
	LogStats() []stats.LogShardStats
	SetRecorder(*obs.Recorder)
}

// runCrashRecover is the benchmark's own copy of the crash lifecycle
// (bench.runRecoveryPoint is unexported and measures less): populate, sharp
// checkpoint, open the terminals for warm-up plus window, stop cold, then
// boot a fresh machine twice through core.RecoverMeasured. The terminal loop
// records what core.Run would, by the same window rule, into a core.Result.
func runCrashRecover(spec *workloadSpec, o passOpts) (*pass, error) {
	p := &pass{}
	env := sim.NewEnv()
	defer env.Close()
	defer pprof.StopCPUProfile() // a no-op unless an error leaves a traced pass profiling
	wl, mkEngine := spec.build()
	mw := &meteredWorkload{Workload: wl, tr: o.tr, timeNext: o.tr != nil}

	o.tr.begin("run")
	o.tr.begin("setup")
	o.tr.begin("core.build")
	eng, ok := mkEngine(env).(checkpointable)
	o.tr.end()
	if !ok {
		return nil, fmt.Errorf("%s: engine is not checkpointable", spec.name)
	}
	p.eng = eng
	pl := eng.Platform()
	root := sim.NewRand(o.seed)
	mw.Populate(eng.Load, root.Split())
	if w, ok := eng.(interface{ Warm() }); ok {
		w.Warm()
	}
	o.tr.begin("core.checkpoint")
	meta, err := checkpoint(env, eng)
	o.tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: checkpoint: %w", spec.name, err)
	}
	if o.measure == 0 {
		o.tr.end() // setup
		o.tr.end() // run
		p.setup = time.Since(o.start)
		return p, nil
	}

	var rec *obs.Recorder
	if o.tr != nil {
		rec = obs.NewRecorder(env.NumShards(), obs.DefaultTraceCap)
		eng.SetRecorder(rec)
	}
	warmT := env.Now() + sim.Time(o.warmup)
	endT := warmT + sim.Time(o.measure)
	res := &core.Result{
		Engine: eng.Name(), Workload: wl.Name(),
		Latency: &stats.Histogram{}, TxnCounts: make(map[string]int64, 8),
	}
	var startSnap platform.Snapshot
	var startBD stats.Breakdown
	var startLog []stats.LogShardStats
	var startCommits int64
	env.At(warmT, func() {
		startSnap, startBD, startLog = pl.Snapshot(), *eng.Breakdown(), eng.LogStats()
		startCommits = eng.Counters().Get("commits")
	})
	for i := 0; i < spec.terminals; i++ {
		i := i
		tr := root.Split()
		tcore := pl.Cores[i%len(pl.Cores)]
		env.Spawn(fmt.Sprintf("terminal%d", i), func(tp *sim.Proc) {
			term := &core.Terminal{ID: i, P: tp, Core: tcore, R: tr, Rec: rec.Shard(0)}
			for {
				name, logic := mw.NextTxn(term.R)
				start := tp.Now()
				committed := eng.Submit(term, logic)
				if start >= warmT && tp.Now() <= endT {
					res.TxnCounts[name]++
					if committed {
						res.Latency.Record(tp.Now().Sub(start))
						for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
							res.Anatomy.Record(ph, term.Ph[ph])
						}
					}
				}
			}
		})
	}
	var m0 hostMark
	var prof bytes.Buffer
	mw.onFirst = func() { m0 = p.startMeasuring(o, &prof) }
	// Stop cold at the end of the window: no drain, no Close. Whatever the
	// log devices hold is the crash image.
	if err := env.RunUntil(endT); err != nil {
		return nil, fmt.Errorf("%s: crash run: %w", spec.name, err)
	}
	p.host = m0.since()
	crashed := time.Now()
	o.tr.add("crash_run", mw.firstNext, crashed)
	p.issued = mw.issued

	endSnap := pl.Snapshot()
	res.Commits = eng.Counters().Get("commits") - startCommits
	res.TPS = sim.PerSecond(res.Commits, o.measure)
	bd := eng.Breakdown().Sub(&startBD)
	res.BD = bd
	res.Energy = pl.Energy(startSnap, endSnap)
	if res.Commits > 0 {
		res.JoulesPerTxn = res.Energy.Total() / float64(res.Commits)
	}
	res.Cache = pl.CacheStats()
	for i, ls := range eng.LogStats() {
		res.LogShards = append(res.LogShards, ls.Sub(startLog[i]))
	}
	res.Events = env.Executed()
	res.Trace = rec
	p.res = res

	r := &recovery{acked: eng.Counters().Get("commits")}
	logs := eng.LogSet().Datas()
	defs := wl.Tables()
	cfg := pl.Cfg
	boot := func(name string, parallel bool) (core.RecoveryStats, []map[uint16]*btree.Tree, time.Duration, error) {
		runtime.GC() // each boot starts from a collected heap, not the other's garbage
		o.tr.begin(name)
		defer o.tr.end()
		t0 := time.Now()
		env2 := sim.NewEnv()
		defer env2.Close()
		pl2 := platform.New(env2, cfg)
		dm2 := eng.DiskManager().Rebind(pl2.Disk)
		var st core.RecoveryStats
		var sets []map[uint16]*btree.Tree
		var err error
		env2.Spawn("recovery", func(rp *sim.Proc) {
			sets, st, err = core.RecoverMeasured(rp, pl2, defs, meta, dm2, logs, parallel)
		})
		if runErr := env2.Run(); runErr != nil {
			return st, nil, 0, runErr
		}
		return st, sets, time.Since(t0), err
	}
	serialSt, serialSets, serialWall, err := boot("boot_serial", false)
	if err != nil {
		return nil, fmt.Errorf("%s: serial boot: %w", spec.name, err)
	}
	parSt, parSets, parWall, err := boot("boot_parallel", true)
	p.stopProfiling(o, &prof, mw)
	if err != nil {
		return nil, fmt.Errorf("%s: parallel boot: %w", spec.name, err)
	}

	if d1, d2 := core.ContentDigestSets(serialSets), core.ContentDigestSets(parSets); d1 != d2 {
		return nil, fmt.Errorf("%s: serial and parallel replay diverged: %s vs %s", spec.name, d1, d2)
	}
	if serialSt.Txns != parSt.Txns || serialSt.Records != parSt.Records {
		return nil, fmt.Errorf("%s: serial boot replayed %d txns/%d records, parallel %d/%d",
			spec.name, serialSt.Txns, serialSt.Records, parSt.Txns, parSt.Records)
	}
	r.recovered, r.records = parSt.Txns, parSt.Records
	// The engine acknowledges a commit after its durable point, so the log
	// may hold commits nobody was told about (at most one per terminal) but
	// never fewer than were acknowledged.
	if r.recovered < r.acked {
		r.lost = r.acked - r.recovered
	}
	if extra := r.recovered - r.acked; extra > int64(spec.terminals) {
		return nil, fmt.Errorf("%s: recovered %d transactions, %d more than acknowledged: more than one per terminal",
			spec.name, r.recovered, extra)
	}
	r.simMs = parSt.SimTime.Seconds() * 1e3
	r.serial, r.parallel, r.sets = serialWall, parWall, parSets
	p.rec = r
	o.tr.end() // run
	return p, nil
}

// checkpoint takes a sharp checkpoint before any terminal exists. Its
// simulated duration is not known up front and the engine's daemons tick
// for ever, so the environment is stepped in chunks that double while
// nothing runs in them, until the checkpointer reports done.
func checkpoint(env *sim.Env, eng checkpointable) (core.CheckpointMeta, error) {
	var meta core.CheckpointMeta
	done := false
	env.Spawn("checkpointer", func(p *sim.Proc) {
		meta = core.CheckpointAllSets(p, eng.TableSets(), eng.DiskManager(), eng.LogSet())
		done = true
	})
	step := sim.Time(sim.Millisecond)
	for !done {
		before := env.Executed()
		if err := env.RunUntil(env.Now() + step); err != nil {
			return meta, err
		}
		if env.Executed() == before {
			step *= 2
		} else {
			step = sim.Time(sim.Millisecond)
		}
	}
	return meta, nil
}
