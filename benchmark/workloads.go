package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// warmup is the simulated time every workload discards before its window.
const warmup = 20 * sim.Millisecond

// nominalSeconds is the --seconds value at which the simulated windows
// below apply unscaled; other values scale all four by seconds/10. The
// windows are fixed in simulated time, not host time, so that every
// simulated result is a pure function of (workload, seed, seconds).
const nominalSeconds = 10

// workloadSpec defines one workload: the machine, the engine, the
// transaction mix, the closed-loop client count and the simulated window.
// BENCHMARK.json carries the one-line reason for each.
type workloadSpec struct {
	name string
	// failCeiling is the fail_share above which the run reports nothing:
	// past it the workload would mostly time the retry path.
	failCeiling float64
	terminals   int
	measure     sim.Duration // at --seconds 10
	// build returns a fresh workload and the constructor of its engine;
	// nothing is shared between passes.
	build func() (core.Workload, func(*sim.Env) core.Engine)
	// check verifies the database from outside after the run.
	check func(db reader) error
	// crashRecover runs the benchmark's own crash/recovery lifecycle in
	// place of core.Run.
	crashRecover bool
}

var tpccRecoverConfig = func() tpcc.Config {
	c := tpcc.DefaultConfig()
	c.Warehouses = 8
	return c
}()

var workloads = []*workloadSpec{
	{
		name: "tatp-bionic", failCeiling: 0.05, terminals: 64, measure: 400 * sim.Millisecond,
		build: func() (core.Workload, func(*sim.Env) core.Engine) {
			wl := tatp.New(tatp.Config{Subscribers: 100000})
			return wl, func(env *sim.Env) core.Engine {
				return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
			}
		},
		check: func(db reader) error { return checkRows(db, tatp.TSubscriber, 100000, 0) },
	},
	{
		name: "tpcc-conv", failCeiling: 0.03, terminals: 64, measure: 400 * sim.Millisecond,
		build: func() (core.Workload, func(*sim.Env) core.Engine) {
			wl := tpcc.New(tpcc.DefaultConfig())
			return wl, func(env *sim.Env) core.Engine {
				return core.NewConventional(env, platform.HC2(), wl.Tables())
			}
		},
		check: func(db reader) error { return checkTPCC(db, tpcc.DefaultConfig()) },
	},
	{
		name: "ycsb-dora-4s", failCeiling: 0.02, terminals: 128, measure: 200 * sim.Millisecond,
		build: func() (core.Workload, func(*sim.Env) core.Engine) {
			cfg := ycsb.WorkloadA()
			cfg.Records, cfg.FieldSize, cfg.Theta = 400000, 100, 0.7
			wl := ycsb.New(cfg)
			return wl, func(env *sim.Env) core.Engine {
				return core.NewDORA(env, platform.HC2ScaledSharded(4), wl.Tables(), wl.Scheme(32))
			}
		},
		check: func(db reader) error { return checkRows(db, ycsb.TUser, 400000, 100) },
	},
	{
		name: "crash-recover-2s", failCeiling: 0.03, terminals: 64, measure: 150 * sim.Millisecond,
		build: func() (core.Workload, func(*sim.Env) core.Engine) {
			wl := tpcc.New(tpccRecoverConfig)
			return wl, func(env *sim.Env) core.Engine {
				return core.NewBionic(env, platform.HC2ScaledSharded(2), wl.Tables(), wl.Scheme(16), core.AllOffloads(), 8)
			}
		},
		check:        func(db reader) error { return checkTPCC(db, tpccRecoverConfig) },
		crashRecover: true,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// window returns the simulated measurement window for --seconds.
func (w *workloadSpec) window(seconds float64) sim.Duration {
	return sim.Duration(float64(w.measure) * seconds / nominalSeconds)
}

// meteredWorkload wraps the workload (never the engine: the harness probes
// the engine for optional capabilities such as Warm) to count the
// transactions issued and to mark the boundaries only a Workload sees from
// outside: the end of population and the first transaction.
type meteredWorkload struct {
	core.Workload
	tr       *tracer
	onFirst  func() // the first NextTxn call ends set-up
	timeNext bool   // traced passes time every NextTxn call

	issued    int64
	populated time.Time
	firstNext time.Time
	lastNext  time.Time
	nextTime  time.Duration // host time inside NextTxn, when timeNext
}

func (w *meteredWorkload) Populate(load func(table uint16, key, val []byte), r *sim.Rand) {
	w.tr.begin("workload.populate")
	w.Workload.Populate(load, r)
	w.tr.end()
	w.populated = time.Now()
}

func (w *meteredWorkload) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	if w.issued == 0 {
		w.onFirst()
		w.firstNext = time.Now()
	}
	w.issued++
	if !w.timeNext {
		return w.Workload.NextTxn(r)
	}
	t0 := time.Now()
	name, logic := w.Workload.NextTxn(r)
	w.lastNext = time.Now()
	w.nextTime += w.lastNext.Sub(t0)
	return name, logic
}

// pass is what one build-populate-run of a workload yields.
type pass struct {
	setup   time.Duration // pass start to the first NextTxn
	host    hostDelta     // first NextTxn to the end of the measured interval
	issued  int64         // transactions issued over that interval
	res     *core.Result  // simulated results of the window
	eng     core.Engine   // the engine after the run, for checks and counters
	profile []byte        // CPU profile of the measured interval, traced passes
	nextNs  float64       // mean host ns inside NextTxn, traced passes
	rec     *recovery     // crash-recover-2s only
}

// passOpts selects what a pass does beyond building and populating.
type passOpts struct {
	seed    uint64
	warmup  sim.Duration // simulated time discarded before the window
	measure sim.Duration // 0: set up only, to time set-up again
	// tr makes the pass a traced one: spans go to it, the program's own
	// recorder is switched on and the measured interval is CPU-profiled.
	tr    *tracer
	start time.Time // what set-up is timed from
}

// startMeasuring is the first NextTxn call of either lifecycle: set-up ends
// and the measured interval begins.
func (p *pass) startMeasuring(o passOpts, prof *bytes.Buffer) hostMark {
	o.tr.end() // setup
	p.setup = time.Since(o.start)
	if o.tr != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cpu profile:", err)
		}
	}
	return markHost()
}

// stopProfiling ends a traced pass's CPU profile and keeps what it and the
// timed NextTxn calls measured.
func (p *pass) stopProfiling(o passOpts, prof *bytes.Buffer, mw *meteredWorkload) {
	if o.tr == nil {
		return
	}
	pprof.StopCPUProfile()
	p.profile = prof.Bytes()
	p.nextNs = float64(mw.nextTime) / float64(mw.issued)
}

// runPass builds, populates and runs spec once through core.Run.
func runPass(spec *workloadSpec, o passOpts) (*pass, error) {
	if spec.crashRecover {
		return runCrashRecover(spec, o)
	}
	p := &pass{}
	defer pprof.StopCPUProfile() // a no-op unless an error leaves a traced pass profiling
	wl, mkEngine := spec.build()
	mw := &meteredWorkload{Workload: wl, tr: o.tr, timeNext: o.tr != nil}
	cfg := core.RunConfig{Terminals: spec.terminals, Warmup: o.warmup, Measure: o.measure, Seed: o.seed}
	if o.measure == 0 {
		// One transaction per terminal, drained, and out: the pass exists
		// for its set-up time.
		cfg.Warmup, cfg.Measure = 0, 1
	}
	if o.tr != nil {
		cfg.Obs = &obs.Options{Trace: true, Metrics: true}
	}
	var m0 hostMark
	var prof bytes.Buffer
	mw.onFirst = func() {
		o.tr.add("core.warm_open", mw.populated, time.Now())
		m0 = p.startMeasuring(o, &prof)
	}
	o.tr.begin("run")
	o.tr.begin("setup")
	res, err := core.Run(cfg, mw, func(env *sim.Env) core.Engine {
		o.tr.begin("core.build")
		p.eng = mkEngine(env)
		o.tr.end()
		return p.eng
	})
	if err != nil {
		return nil, fmt.Errorf("%s: core.Run: %w", spec.name, err)
	}
	p.host = m0.since()
	end := time.Now()
	p.stopProfiling(o, &prof, mw)
	if o.tr != nil {
		o.tr.add("steady", mw.firstNext, mw.lastNext)
		o.tr.add("drain_close", mw.lastNext, end)
	}
	o.tr.end() // run
	p.issued, p.res = mw.issued, res
	return p, nil
}
