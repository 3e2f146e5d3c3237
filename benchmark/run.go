package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// runOpts shapes the measurement of one workload.
type runOpts struct {
	seed    uint64
	seconds float64 // scales the simulated windows; 10 is the definition
	trace   bool    // also make the traced pass and the per-layer metrics
	// smoke makes one traced pass stand for both, for the tests: its numbers
	// are not measurements.
	smoke bool
	// ladder carries rung results measured once for several workloads (the
	// smoke run); nil lets a traced measurement run the ladder itself.
	ladder values
	// start is what the first set-up is timed from: the start of a process
	// that runs just this workload. Zero times it from its own beginning.
	start  time.Time
	outDir string // where the traced pass leaves its trace and CPU profile
}

// outcome is everything one workload's measurement yields.
type outcome struct {
	workload  string
	endToEnd  values
	perLayer  values    // nil unless traced
	attempted int64     // transactions finished inside the window
	failed    int64     // of those, not committed (or acknowledged and lost)
	samples   int64     // committed-latency samples behind sim_mean/p50/p99
	setups    []float64 // seconds each set-up took; setup_s is their median
	note      string    // what else a reader of the report should know
	spans     []span
}

// laterStart begins the timing of a set-up that is not its process's first.
// It collects and hands the heap back to the OS first: a pass on a grown,
// mapped heap sets up twice as fast as a process does, and set-up is the
// process's.
func laterStart() time.Time {
	debug.FreeOSMemory()
	return time.Now()
}

// measureWorkload runs spec and returns its metrics. Untraced: the measured
// pass and two set-up-only passes, set-up reported as the median of the
// three (one set-up per run is too few to hold set-up time to a bound).
// Traced: an untraced measured pass for the exact counts, then the same pass
// again under the span recorder, the program's own recorder and the CPU
// profiler, then the ladder.
func measureWorkload(spec *workloadSpec, o runOpts) (*outcome, error) {
	window := spec.window(o.seconds)
	if window < 1 {
		return nil, fmt.Errorf("%s: --seconds %g leaves no measurement window", spec.name, o.seconds)
	}
	out := &outcome{workload: spec.name}
	tr := newTracer(spec.name)
	start := o.start
	if start.IsZero() {
		start = laterStart()
	}
	if o.smoke {
		// The smoke run shrinks the warm-up with the window; a measurement
		// never does.
		warm := sim.Duration(float64(warmup) * o.seconds / nominalSeconds)
		p, err := runPass(spec, passOpts{seed: o.seed, warmup: warm, measure: window, tr: tr, start: start})
		if err != nil {
			return nil, err
		}
		if err := out.setEndToEnd(spec, p, tr); err != nil {
			return nil, err
		}
		out.perLayer = layerCounts(p)
		return out, out.addTraced(p, tr, 0, o)
	}

	// The measured pass goes first, in a process that has done nothing else,
	// so that its peak memory is its own.
	p, err := runPass(spec, passOpts{seed: o.seed, warmup: warmup, measure: window, start: start})
	if err != nil {
		return nil, err
	}
	if err := out.setEndToEnd(spec, p, nil); err != nil {
		return nil, err
	}
	if !o.trace {
		p = nil // the set-up passes get the memory a fresh process would
		out.setups = []float64{out.endToEnd["setup_s"]}
		for i := 0; i < 2; i++ {
			sp, err := runPass(spec, passOpts{seed: o.seed, warmup: warmup, start: laterStart()})
			if err != nil {
				return nil, err
			}
			out.setups = append(out.setups, sp.setup.Seconds())
		}
		out.endToEnd["setup_s"] = median(out.setups)
		return out, nil
	}

	out.perLayer = layerCounts(p)
	p = nil // let the traced pass have the memory
	tp, err := runPass(spec, passOpts{seed: o.seed, warmup: warmup, measure: window, tr: tr, start: laterStart()})
	if err != nil {
		return nil, err
	}
	for name, got := range simValues(tp) {
		if want := out.endToEnd[name]; got != want {
			return nil, fmt.Errorf("%s: %s is %v traced and %v untraced: the recorder perturbed the simulation", spec.name, name, got, want)
		}
	}
	if err := verify(spec, tp, tr); err != nil {
		return nil, err
	}
	tracedUs := tp.host.wall.Seconds() * 1e6 / float64(tp.issued)
	if err := out.addTraced(tp, tr, tracedUs/out.endToEnd["host_us_per_txn"], o); err != nil {
		return nil, err
	}
	return out, writeChromeTrace(filepath.Join(o.outDir, "trace-"+spec.name+".json"), tr.spans)
}

func addAll(dst, src values) {
	for k, v := range src {
		dst[k] = v
	}
}

// verify runs the workload's output checks on the database the pass left:
// the recovered trees where there was a crash, the engine otherwise.
func verify(spec *workloadSpec, p *pass, tr *tracer) error {
	tr.begin("verify")
	defer tr.end()
	var db reader = p.eng
	if p.rec != nil {
		db = treeSets(p.rec.sets)
	}
	if err := spec.check(db); err != nil {
		return fmt.Errorf("%s: output check: %w", spec.name, err)
	}
	return nil
}

// simValues are the simulated end-to-end results: a pure function of
// (workload, seed, seconds), compared bit for bit between passes.
func simValues(p *pass) values {
	res := p.res
	us := float64(sim.Microsecond)
	mean := float64(res.Latency.Sum()) / float64(res.Latency.Count()) / us
	latency := buckets(func(p float64) float64 { return res.Latency.Percentile(p).Microseconds() })
	attempted, failed := attemptedFailed(p)
	return values{
		"sim_tps":        res.TPS,
		"sim_uj_per_txn": res.JoulesPerTxn * 1e6,
		"sim_mean_us":    mean,
		"sim_p50_us":     quantile(latency, 50, res.Latency.Min().Microseconds(), mean),
		"sim_p99_us":     quantile(latency, 99, res.Latency.Min().Microseconds(), mean),
		"commit_share":   1 - float64(failed)/float64(attempted),
	}
}

// attemptedFailed counts the transactions that finished inside the window
// and those of them that did not commit. An acknowledged commit missing
// after recovery is a failure too.
func attemptedFailed(p *pass) (attempted, failed int64) {
	for _, n := range p.res.TxnCounts {
		attempted += n
	}
	failed = attempted - p.res.Latency.Count()
	if p.rec != nil {
		failed += p.rec.lost
	}
	return attempted, failed
}

// setEndToEnd fills the end-to-end metrics from the measured pass, which
// must have just ended (peak memory is read here), runs the output checks,
// and refuses when too many transactions failed.
func (out *outcome) setEndToEnd(spec *workloadSpec, p *pass, tr *tracer) error {
	if p.res.Latency.Count() == 0 {
		return fmt.Errorf("%s: no transaction committed inside the window", spec.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	n := float64(p.issued)
	out.endToEnd = values{
		"setup_s":               p.setup.Seconds(),
		"host_us_per_txn":       p.host.wall.Seconds() * 1e6 / n,
		"host_cpu_us_per_txn":   p.host.cpu.Seconds() * 1e6 / n,
		"host_allocs_per_txn":   float64(p.host.mallocs) / n,
		"host_alloc_kb_per_txn": float64(p.host.bytes) / 1024 / n,
		"host_peak_rss_mb":      rss,
	}
	addAll(out.endToEnd, simValues(p))
	out.attempted, out.failed = attemptedFailed(p)
	out.samples = p.res.Latency.Count()
	if r := p.rec; r != nil {
		out.note = fmt.Sprintf("%d commits acknowledged before the crash, %d transactions and %d log records replayed by each boot",
			r.acked, r.recovered, r.records)
	}
	if fs := float64(out.failed) / float64(out.attempted); fs > spec.failCeiling {
		return fmt.Errorf("%s: fail_share %.4f is above its ceiling %.2f: the run would mostly time the retry path",
			spec.name, fs, spec.failCeiling)
	}
	return verify(spec, p, tr)
}

// layerCounts are the per-layer counts of the untraced measured pass. They
// come from the program's own counters, read from outside after the run.
func layerCounts(p *pass) values {
	res := p.res
	issued := float64(p.issued)
	commits := float64(res.Commits)
	committed := float64(res.Latency.Count())
	v := values{
		"sim.events_per_txn":      float64(res.Events) / issued,
		"sim.host_ns_per_event":   float64(p.host.wall.Nanoseconds()) / float64(res.Events),
		"platform.instr_per_txn":  float64(p.eng.Platform().Instructions()) / issued,
		"platform.llc_miss_ratio": res.Cache.MissRatio(),
		"core.retries_per_ktxn":   float64(p.eng.Counters().Get("aborts.deadlock")) / issued * 1e3,
	}
	var logBytes, logSyncs int64
	for _, ls := range res.LogShards {
		logBytes += ls.Bytes
		logSyncs += ls.Syncs
	}
	v["wal.bytes_per_txn"] = float64(logBytes) / commits
	v["wal.syncs_per_ktxn"] = float64(logSyncs) / commits * 1e3
	for name, ph := range map[string]stats.Phase{
		"core.anatomy.queue_us": stats.PhaseQueue, "core.anatomy.lock_us": stats.PhaseLock,
		"core.anatomy.exec_us": stats.PhaseExec, "core.anatomy.xshard_us": stats.PhaseCross,
		"core.anatomy.durability_us": stats.PhaseDur,
	} {
		v[name] = res.Anatomy.Phase(ph).Sum().Microseconds() / committed
	}
	for name, c := range map[string]stats.Component{
		"core.frontend.sim_share": stats.CompFrontEnd, "dora.sim_share": stats.CompDora,
		"txn.sim_share": stats.CompXct, "wal.sim_share": stats.CompLog,
		"btree.sim_share": stats.CompBtree, "bufferpool.sim_share": stats.CompBpool,
	} {
		v[name] = res.BD.Fraction(c)
	}
	attempted, failed := attemptedFailed(p)
	v["fail_share"] = float64(failed) / float64(attempted)
	v["sim_recover_ms"], v["host_recover_us_per_record"] = 0, 0
	if r := p.rec; r != nil {
		v["sim_recover_ms"] = r.simMs
		v["host_recover_us_per_record"] = r.parallel.Seconds() * 1e6 / float64(r.records)
	}
	return v
}

// addTraced adds what only the traced pass tp can tell: where the host's
// time went by span and by CPU sample, what recording cost (overhead: traced
// over untraced host time per transaction), and the ladder, which it runs
// unless the caller already has. The CPU profile stays in o.outDir for a
// closer look with `go tool pprof`.
func (out *outcome) addTraced(tp *pass, tr *tracer, overhead float64, o runOpts) error {
	profilePath := filepath.Join(o.outDir, "cpu-"+out.workload+".pprof")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(profilePath, tp.profile, 0o644); err != nil {
		return err
	}
	shares, err := hostShares(profilePath)
	if err != nil {
		return err
	}
	ladder := o.ladder
	v := out.perLayer
	for name, share := range shares {
		v["host_share."+name] = share
	}
	v["core.build_s"] = tr.duration("core.build").Seconds()
	v["workload.populate_s"] = tr.duration("workload.populate").Seconds()
	v["core.checkpoint_s"] = tr.duration("core.checkpoint").Seconds()
	v["workload.nexttxn_ns"] = tp.nextNs
	v["obs.overhead_ratio"] = overhead
	v["core.replay_serial_ns_per_record"], v["core.replay_parallel_ns_per_record"] = 0, 0
	if r := tp.rec; r != nil {
		v["core.replay_serial_ns_per_record"] = float64(r.serial.Nanoseconds()) / float64(r.records)
		v["core.replay_parallel_ns_per_record"] = float64(r.parallel.Nanoseconds()) / float64(r.records)
	}
	if ladder == nil {
		tr.begin("ladder")
		ladder = runLadder(1, tr)
		tr.end()
	}
	addAll(v, ladder)
	out.spans = tr.spans
	return nil
}
