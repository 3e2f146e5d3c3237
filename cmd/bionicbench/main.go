// Command bionicbench regenerates every figure of the paper and the
// auxiliary claim experiments from the simulated system. The experiments
// table below lists them: each is selected by its flag (-fig N for the
// paper's Figures 1-4), -all runs every one, and bionicbench with no
// experiment prints the table.
//
// Every run-backed experiment declares one bench.Grid, whose runs fan out
// across -parallel workers, each in its own simulation environment, so
// parallel results are bit-identical to serial ones. -json FILE writes
// every measurement of the invocation as one JSON document. -sockets N
// puts the figure/sweep experiments on the same weak-scaled N-socket
// machine as the scale-out figures and caps those figures' socket axis at
// N. -trace-out and -metrics-out attach the flight recorder, strictly out
// of band: simulated results are bit-identical with it on or off.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"bionicdb/internal/bench"
	"bionicdb/internal/core"
	"bionicdb/internal/darksilicon"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// experiment is one entry of the experiments table.
type experiment struct {
	flag  string // "fig N" is selected by -fig N; anything else is a bool flag
	usage string
	run   func()
	json  bool // its measurements go into the -json document
}

// experiments is every experiment, in the order -all runs them.
var experiments = []experiment{
	{"fig 1", "Figure 1: dark-silicon utilization curves", fig1, false},
	{"fig 2", "Figure 2: platform latency/bandwidth check", fig2, false},
	{"fig 3", "Figure 3: DORA time breakdown (TATP UpdateSubscriberData, TPC-C StockLevel)", fig3, true},
	{"fig 4", "Figure 4: conventional vs DORA vs bionic", fig4, true},
	{"ablation", "run the C2 offload ablation on the TATP mix", runAblation, true},
	{"saturation", "run the C1 probe saturation sweep", runSaturation, false},
	{"latencies", "print the Section 3 latency taxonomy", runLatencies, false},
	{"sweep", "run the engine x workload (TATP, TPC-C, YCSB) sweep grid", runSweep, true},
	{"fig-scaling", "run the multi-socket scaling sweep (throughput + joules/txn vs sockets)", runFigScaling, true},
	{"fig-recovery", "run the crash-recovery sweep (replay time + joules vs sockets)", runFigRecovery, true},
	{"fig-htap", "run the HTAP sweep (txn throughput + scan bandwidth + freshness vs sockets, conventional vs bionic)", runFigHTAP, true},
	{"fig-failover", "run the failover sweep (replication tax per mode, then a faulted primary kill and the replica's measured time-to-serving)", runFigFailover, true},
	{"fig-anatomy", "run the latency-anatomy sweep (per-phase p50/p99 per engine and workload at 1/4/16 sockets)", runFigAnatomy, true},
}

var (
	figFlag     = flag.Int("fig", 0, "regenerate figure 1..4")
	traceOut    = flag.String("trace-out", "", "write each run's span trace as Chrome trace_event JSON to this file (index-suffixed when the invocation runs multiple points)")
	metricsOut  = flag.String("metrics-out", "", "write each run's telemetry time series to this file (.json = JSON, else CSV; index-suffixed when multiple points)")
	shardedLog  = flag.Bool("sharded-log", false, "per-socket log shards: give every socket its own log stream and SSD (multi-socket only); -fig-scaling additionally runs the sharded axis next to the central baseline")
	replication = flag.String("replication", "off", "log-shipping replication mode for the figure/sweep experiments: off|async|sync|quorum (-fig-failover sweeps all modes unless this narrows it)")
	replicas    = flag.Int("replicas", 2, "replica machines when -replication is on")
	all         = flag.Bool("all", false, "run every experiment")
	quick       = flag.Bool("quick", false, "shrink scales for a fast run")
	csv         = flag.Bool("csv", false, "emit CSV instead of tables")
	jsonOut     = flag.String("json", "", "write every measurement of the invocation as one JSON document to this file")
	parallel    = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	seed        = flag.Uint64("seed", 42, "simulation seed")
	seeds       = flag.Int("seeds", 1, "seeds per sweep grid point (seed, seed+1, ...)")
	sockets     = flag.Int("sockets", 1, "CPU sockets: the weak-scaled machine for the figure/sweep experiments, axis cap for the scale-out ones")
	terminals   = flag.Int("terminals", 64, "closed-loop clients per socket")
	measureMs   = flag.Int("measure", 50, "measurement window, simulated ms")
	warmupMs    = flag.Int("warmup", 20, "warmup, simulated ms")
	subscribers = flag.Int("subscribers", tatp.DefaultConfig().Subscribers, "TATP scale")
	warehouses  = flag.Int("warehouses", 4, "TPC-C scale (per socket)")
	records     = flag.Int("records", 100000, "YCSB scale")
	cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile  = flag.String("memprofile", "", "sample one allocation per 2 KB during the run and write the allocs profile to this file")
)

// doc accumulates every measurement of the invocation for -json.
var doc bench.Doc

// fatal stops any active CPU profile — so the profile file is complete and
// readable even on error exits — prints the error, and exits 1.
func fatal(v any) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}

// usage prints the experiments table, then every flag.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: bionicbench [flags] -all | experiment...\n\nexperiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  -%-13s %s\n", e.flag, e.usage)
	}
	fmt.Fprintln(w, "\nflags:")
	flag.PrintDefaults()
}

// memProfileRate is the allocation sampling interval under -memprofile. The
// runtime's default, one sample per 512 KB, attributes next to nothing on a
// run whose steady state allocates a kilobyte or two per transaction.
const memProfileRate = 2048

func main() {
	selected := map[string]*bool{}
	for _, e := range experiments {
		if !strings.HasPrefix(e.flag, "fig ") {
			selected[e.flag] = flag.Bool(e.flag, false, e.usage)
		}
	}
	flag.Usage = usage
	flag.Parse()
	if *quick {
		applyQuick()
	}
	var run []experiment
	for _, e := range experiments {
		if *all || e.flag == fmt.Sprintf("fig %d", *figFlag) || selected[e.flag] != nil && *selected[e.flag] {
			run = append(run, e)
		}
	}
	if err := checkFlags(run); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if len(run) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *memprofile != "" {
		// Before the first allocation worth attributing; the runtime reads
		// the rate at each allocation.
		runtime.MemProfileRate = memProfileRate
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	for _, e := range run {
		e.run()
	}
	var events, switches uint64
	var wall time.Duration
	for _, r := range doc.Results {
		events, switches, wall = events+r.Res.Events, switches+r.Res.Switches, wall+r.Wall
	}
	if events > 0 && wall > 0 {
		// Host measurement, so stderr: stdout stays byte-identical across
		// runs (the figure-parity check diffs it).
		fmt.Fprintf(os.Stderr, "kernel: %d simulated events (%d process switches), %.2fs summed run wall, %.2fM events/sec\n",
			events, switches, wall.Seconds(), float64(events)/wall.Seconds()/1e6)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // a sample is published by the collection after it
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := doc.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d results, %d recovery and %d failover records to %s\n",
			len(doc.Results), len(doc.Recovery), len(doc.Failover), *jsonOut)
	}
}

// applyQuick shrinks the scales and windows for -quick. A flag given on the
// command line keeps its value.
func applyQuick() {
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, q := range []struct {
		name string
		p    *int
		v    int
	}{
		{"subscribers", subscribers, 10000}, {"warehouses", warehouses, 2}, {"records", records, 10000},
		{"measure", measureMs, 15}, {"warmup", warmupMs, 5},
	} {
		if !given[q.name] {
			*q.p = q.v
		}
	}
}

// checkFlags rejects, before any run starts, what no run can use: a
// non-positive scale, terminal count, window, seed count, socket count or
// replica count, a negative warmup, or an unknown -replication mode. It
// also rejects -seeds above 1 unless run, the experiments selected, is
// -sweep alone: no other experiment reads it, and a flag silently ignored
// reads as a result over several seeds. And it rejects -json unless run
// holds an experiment that measures something, naming those that do.
func checkFlags(run []experiment) error {
	for _, f := range []struct {
		name string
		v    int
		min  int
	}{
		{"warehouses", *warehouses, 1}, {"subscribers", *subscribers, 1}, {"records", *records, 1},
		{"terminals", *terminals, 1}, {"measure", *measureMs, 1}, {"seeds", *seeds, 1},
		{"sockets", *sockets, 1}, {"warmup", *warmupMs, 0}, {"replicas", *replicas, 1},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %d: must be at least %d", f.name, f.v, f.min)
		}
	}
	if _, err := stats.ParseReplMode(*replication); err != nil {
		return fmt.Errorf("-replication %s: %v", *replication, err)
	}
	for _, e := range run {
		if e.flag != "sweep" && *seeds > 1 {
			return fmt.Errorf("-seeds %d: only -sweep runs more than one seed, and -%s runs one (-seed)", *seeds, e.flag)
		}
	}
	if *jsonOut != "" && !slices.ContainsFunc(run, func(e experiment) bool { return e.json }) {
		var measured []string
		for _, e := range experiments {
			if e.json {
				measured = append(measured, "-"+e.flag)
			}
		}
		return fmt.Errorf("-json %s: the selected experiments run no measurements; use %s", *jsonOut, strings.Join(measured, ", "))
	}
	return nil
}

func emit(title string, t *stats.Table) {
	fmt.Printf("### %s\n", title)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
	fmt.Println()
}

// obsSeq numbers observability artifacts across the whole invocation, so
// -all with -trace-out never overwrites one experiment's trace with the
// next's.
var obsSeq int

// writeObsArtifacts exports each result's trace and telemetry to the flag
// paths. A single-point invocation writes the paths verbatim; otherwise
// every artifact carries the point's invocation-wide index.
func writeObsArtifacts(results []bench.Result) {
	if *traceOut == "" && *metricsOut == "" {
		return
	}
	single := obsSeq == 0 && len(results) == 1
	path := func(p string) string { // trace.json -> trace.3.json
		if single {
			return p
		}
		ext := filepath.Ext(p)
		return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(p, ext), obsSeq, ext)
	}
	for _, r := range results {
		if *traceOut != "" && r.Res != nil && r.Res.Trace != nil {
			if err := obs.WriteTraceFile(path(*traceOut), r.Res.Trace); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" && r.Res != nil && r.Res.Metrics != nil {
			if err := r.Res.Metrics.WriteMetricsFile(path(*metricsOut)); err != nil {
				fatal(err)
			}
		}
		obsSeq++
	}
	// Host-side bookkeeping, so stderr: stdout stays byte-identical with
	// the recorder on or off (the figure-parity check diffs it).
	fmt.Fprintf(os.Stderr, "wrote observability artifacts for %d run(s)\n", len(results))
}

// runPoints executes points through the shared pool, records them for
// -json, fails fast on any run error and writes the flight recorder's
// artifacts.
func runPoints(points []bench.Point) []bench.Result {
	results := bench.Run(points, bench.Options{Parallel: *parallel})
	doc.Results = append(doc.Results, results...)
	for _, r := range results {
		if r.Err != nil {
			fatal(r.Err)
		}
	}
	writeObsArtifacts(results)
	return results
}

func windows() (warmup, measure sim.Duration) {
	return sim.Duration(*warmupMs) * sim.Millisecond, sim.Duration(*measureMs) * sim.Millisecond
}

// grid starts every run-backed experiment's Grid: its group and engine
// axis, the seed, the windows and the flight recorder when -trace-out or
// -metrics-out asks for it.
func grid(group string, engines ...bench.EngineSpec) bench.Grid {
	warmup, measure := windows()
	g := bench.Grid{Group: group, Engines: engines, Seeds: []uint64{*seed}, Warmup: warmup, Measure: measure}
	if *traceOut != "" || *metricsOut != "" {
		g.Obs = &obs.Options{Trace: *traceOut != "", Metrics: *metricsOut != ""}
	}
	return g
}

// onMachine puts a figure or sweep grid on the flag-selected machine:
// -sockets N, weak-scaled like the scale-out figures (the paper's one
// socket leaves the points unannotated), -sharded-log and -replication.
func onMachine(g bench.Grid) bench.Grid {
	if *sockets > 1 {
		g.Sockets = []int{*sockets}
	}
	g.ShardedLog, g.Repl, g.Replicas = *shardedLog, replMode(), *replicas
	return g
}

// replMode is -replication's mode; checkFlags has refused an unknown one.
func replMode() stats.ReplMode {
	m, _ := stats.ParseReplMode(*replication)
	return m
}

// bySocket expands g one socket count at a time, so each machine's rows
// print together.
func bySocket(g bench.Grid, socks []int) []bench.Point {
	var points []bench.Point
	for _, n := range socks {
		g.Sockets = []int{n}
		points = append(points, g.Points()...)
	}
	return points
}

// family is the Figure 4 engine family, each named by its engine.
func family() []bench.EngineSpec {
	return []bench.EngineSpec{bench.Conventional(), bench.DORA(), bench.Bionic(core.AllOffloads())}
}

// Workload specs, each defined once with its weak scaling: TPC-C grows its
// warehouses with the machine (warehouses are TPC-C's unit of parallelism;
// a fixed-size database would measure contention collapse, not engine
// scaling) and so does the hybrid YCSB its records; TATP and YCSB keep
// their databases.

func tatpSpec() bench.WorkloadSpec {
	n := *subscribers
	return bench.WorkloadSpec{Name: "tatp", Make: func(int) core.Workload {
		return tatp.New(tatp.Config{Subscribers: n})
	}}
}

func tpccSpec(name string, mk func(tpcc.Config) core.Workload) bench.WorkloadSpec {
	base := tpcc.DefaultConfig()
	base.Warehouses = *warehouses
	if *quick {
		base.CustomersPerDistrict = 600
		base.Items = 20000
	}
	return bench.WorkloadSpec{Name: name, Make: func(sockets int) core.Workload {
		cfg := base
		cfg.Warehouses *= sockets
		return mk(cfg)
	}}
}

func newTPCC(cfg tpcc.Config) core.Workload { return tpcc.New(cfg) }

func ycsbSpec() bench.WorkloadSpec {
	cfg := ycsb.DefaultConfig()
	cfg.Records = *records
	return bench.WorkloadSpec{Name: "ycsb", Make: func(int) core.Workload { return ycsb.New(cfg) }}
}

func htapYCSBSpec() bench.WorkloadSpec {
	base := ycsb.DefaultConfig()
	base.Records = *records
	return bench.WorkloadSpec{Name: "htap-ycsb", Make: func(sockets int) core.Workload {
		cfg := base
		cfg.Records *= sockets
		return htap.NewYCSB(cfg, htap.DefaultParams())
	}}
}

// fig1 prints the dark-silicon utilization curves and the power-envelope
// projection.
func fig1() {
	for _, panel := range darksilicon.Figure1Panels() {
		t := stats.NewTable("cores", ">10% serial", ">1% serial", ">0.1% serial", ">0.01% serial")
		for n := 1; n <= panel.Cores; n *= 2 {
			p := darksilicon.Panel{Year: panel.Year, Cores: n, PowerCap: panel.PowerCap}
			row := []string{fmt.Sprintf("%d", n)}
			for _, s := range darksilicon.SerialFractions() {
				row = append(row, darksilicon.FormatPct(darksilicon.PanelUtilization(p, s)))
			}
			t.Row(row...)
		}
		emit(fmt.Sprintf("Figure 1(%c): fraction of chip utilized, %d (%d cores, power cap %s)",
			'a'+rune(panel.Year-2011)/7, panel.Year, panel.Cores, darksilicon.FormatPct(panel.PowerCap)), t)
	}
	t := stats.NewTable("generation", ">usable (30%/gen)", ">usable (50%/gen)")
	for gen := 0; gen <= 4; gen++ {
		t.Row(fmt.Sprintf("2018+%d", gen*2),
			darksilicon.FormatPct(darksilicon.EnvelopeGeneration(gen, 0.3)),
			darksilicon.FormatPct(darksilicon.EnvelopeGeneration(gen, 0.5)))
	}
	emit("Power envelope projection (Section 2)", t)
	var need []string
	for _, panel := range darksilicon.Figure1Panels() {
		need = append(need, fmt.Sprintf("%s on %d cores",
			darksilicon.FormatPct(darksilicon.RequiredSerialFraction(0.9, panel.Cores)), panel.Cores))
	}
	fmt.Printf("serial fraction needed for 90%% utilization (before the power cap): %s\n", strings.Join(need, ", "))
	lower, faster := darksilicon.EquivalentGains(10, 100000, 10)
	fmt.Printf("joules/op identity: 10x less power -> %.2e J/op; 10x faster -> %.2e J/op\n\n", lower, faster)
}

// fig2 prints the platform characterization vs Figure 2's numbers.
func fig2() {
	t := stats.NewTable("component", ">spec GB/s", ">meas GB/s", ">spec latency", ">meas latency")
	for _, row := range platform.Characterize(platform.HC2()) {
		t.Row(row.Name,
			fmt.Sprintf("%.2f", row.SpecGBps), fmt.Sprintf("%.2f", row.MeasGBps),
			row.SpecLat.String(), row.MeasLat.String())
	}
	emit("Figure 2: CPU/FPGA platform characterization", t)
}

// fig3 prints the DORA software breakdown for the two Figure 3 workloads.
func fig3() {
	n := *subscribers
	g := onMachine(grid("fig3", bench.DORA()))
	g.Workloads = []bench.WorkloadSpec{
		{Name: "tatp-updsubdata", Make: func(int) core.Workload {
			return tatp.New(tatp.Config{Subscribers: n}).UpdateSubDataOnly()
		}},
		tpccSpec("tpcc-stocklevel", func(cfg tpcc.Config) core.Workload { return tpcc.New(cfg).StockLevelOnly() }),
	}
	g.Terminals = []int{*terminals}
	results := runPoints(g.Points())
	t := stats.NewTable("component", ">TATP UpdSubData", ">TPCC StockLevel")
	for _, comp := range stats.Components() {
		t.Row(comp.String(),
			fmt.Sprintf("%.1f%%", results[0].Res.BD.Fraction(comp)*100),
			fmt.Sprintf("%.1f%%", results[1].Res.BD.Fraction(comp)*100))
	}
	emit("Figure 3: CPU time breakdown, DORA software engine", t)
}

// fig4 compares the three engines on both workload mixes.
func fig4() {
	// TPC-C concurrency scales with warehouses (the spec mandates 10
	// terminals per warehouse; 2x that keeps pressure without district
	// convoys), so each workload expands as its own grid.
	var points []bench.Point
	for _, wl := range []struct {
		spec      bench.WorkloadSpec
		terminals int
	}{
		{tatpSpec(), *terminals},
		{tpccSpec("tpcc", newTPCC), *warehouses * 20},
	} {
		g := onMachine(grid("fig4", family()...))
		g.Workloads = []bench.WorkloadSpec{wl.spec}
		g.Terminals = []int{wl.terminals}
		points = append(points, g.Points()...)
	}
	results := runPoints(points)

	// rel J is joules per transaction over the conventional engine's on
	// the same workload.
	baseJ := map[string]float64{}
	for _, r := range results {
		if r.Point.Engine.Name == "conventional" {
			baseJ[r.Point.Workload.Name] = r.Res.JoulesPerTxn
		}
	}
	t := bench.ResultTable(results, []bench.Column[bench.Result]{bench.ColWorkload, bench.ColEngine},
		bench.ColTPS, bench.ColUJPerTxn,
		bench.Float("rel J", "%.2f", func(r bench.Result) float64 {
			if b := baseJ[r.Point.Workload.Name]; b > 0 {
				return r.Res.JoulesPerTxn / b
			}
			return 1
		}),
		bench.ColP50, bench.ColP95,
		bench.Float("retries/txn", "%.3f", func(r bench.Result) float64 { return r.Res.RetriesPerTxn() }),
		bench.Float("CPU J", "%.1f", func(r bench.Result) float64 { return (r.Res.Energy.CPUDynamic + r.Res.Energy.CPUIdle) * 1e3 }),
		bench.Float("FPGA J", "%.1f", func(r bench.Result) float64 { return r.Res.Energy.FPGA * 1e3 }))
	emit("Figure 4: conventional vs DORA vs bionic (energy in mJ over the window)", t)
}

// runAblation sweeps the offload lattice on the TATP mix.
func runAblation() {
	lattice := []core.Offloads{
		{},
		{Queue: true},
		{Log: true},
		{Queue: true, Log: true},
		{Overlay: true},
		{Log: true, Overlay: true},
		core.AllOffloads(),
	}
	engines := make([]bench.EngineSpec, len(lattice))
	for i, off := range lattice {
		engines[i] = bench.Bionic(off)
		engines[i].Name = off.String() // table rows name the subset, not the engine
	}
	g := onMachine(grid("ablation", engines...))
	g.Workloads = []bench.WorkloadSpec{tatpSpec()}
	g.Terminals = []int{*terminals}
	results := runPoints(g.Points())
	offloads := bench.ColEngine
	offloads.Header = "offloads"
	t := bench.ResultTable(results, []bench.Column[bench.Result]{offloads},
		bench.ColTPS, bench.ColUJPerTxn, bench.ColP50, bench.ColP95)
	emit("C2 ablation: TATP mix, DORA base plus offload subsets", t)
}

// runSweep runs the full engine x workload grid — TATP, TPC-C and YCSB on
// all three engines — the broad-and-cheap experiment surface the figure
// generators sample corners of.
func runSweep() {
	g := onMachine(grid("sweep", family()...))
	g.Workloads = []bench.WorkloadSpec{tatpSpec(), tpccSpec("tpcc", newTPCC), ycsbSpec()}
	g.Terminals = []int{*terminals}
	for i := 1; i < *seeds; i++ {
		g.Seeds = append(g.Seeds, *seed+uint64(i))
	}
	results := runPoints(g.Points())
	emit(fmt.Sprintf("Sweep: %d grid points (engines x workloads x %d seed(s))",
		len(results), len(g.Seeds)), bench.Table(results))
}

// capped caps a scale-out socket axis at -sockets, and extends it to
// -sockets, when -sockets > 1.
func capped(axis []int) []int {
	if *sockets <= 1 {
		return axis
	}
	var out []int
	for _, n := range axis {
		if n <= *sockets {
			out = append(out, n)
		}
	}
	if out[len(out)-1] != *sockets {
		out = append(out, *sockets)
	}
	return out
}

// socketAxis is the scale-out experiments' socket axis: 1 -> 16 by powers
// of two.
func socketAxis() []int { return capped([]int{1, 2, 4, 8, 16}) }

// scaleOut starts a scale-out experiment's grid: its workloads at the
// scale-out figures' offered load per socket.
func scaleOut(group string, engines []bench.EngineSpec, workloads ...bench.WorkloadSpec) bench.Grid {
	g := grid(group, engines...)
	g.Workloads = workloads
	g.Terminals = []int{32}
	if *quick {
		g.Terminals = []int{8}
	}
	return g
}

// runFigScaling measures the scale-out story: all three engines on all
// three workloads at 1 -> 16 sockets (weak scaling: terminals and TPC-C
// warehouses grow with the machine; -sockets > 1 caps the axis). The table
// reports throughput, speedup over one socket and joules/txn — the
// committed BENCH_scaling.json baseline is this experiment's -json output.
func runFigScaling() {
	socks := socketAxis()
	g := scaleOut("fig-scaling", bench.Engines(), tatpSpec(), tpccSpec("tpcc", newTPCC), ycsbSpec())
	// One socket count at a time, so each machine's rows print together.
	// With -sharded-log the sharded axis runs next to the central baseline
	// (only where it is structurally different: 2+ sockets), so the table
	// shows exactly what sharding the log lifts.
	var points []bench.Point
	for _, n := range socks {
		g.Sockets = []int{n}
		g.ShardedLog = false
		points = append(points, g.Points()...)
		if *shardedLog && n > 1 {
			g.ShardedLog = true
			points = append(points, g.Points()...)
		}
	}
	results := runPoints(points)
	emit(fmt.Sprintf("fig-scaling: weak scaling over %v sockets (%s interconnect)",
		socks, platform.HC2().ICTopology), bench.ScalingTable(results))
}

// runFigHTAP measures the hybrid story: the mixed workloads (transactions
// with analytical range scans over columnar projections) on the
// conventional and bionic machines at 1 -> 16 sockets, weak-scaled.
// Sharded logs give the freshness vector one entry per socket. The
// committed BENCH_htap.json baseline is this experiment's -json output.
func runFigHTAP() {
	socks := socketAxis()
	engines := bench.Engines()
	g := scaleOut("fig-htap", []bench.EngineSpec{engines[0], engines[2]}, htapYCSBSpec(),
		tpccSpec("htap-tpcc", func(cfg tpcc.Config) core.Workload { return htap.NewTPCC(cfg, htap.DefaultParams()) }))
	g.ShardedLog, g.HTAP = true, true
	results := runPoints(bySocket(g, socks))
	emit(fmt.Sprintf("fig-htap: hybrid weak scaling over %v sockets, conventional vs bionic", socks),
		bench.HTAPTable(results))
}

// runFigRecovery measures the durability subsystem's read side
// (Grid.RunRecovery) on TPC-C and DORA: the log-heavy benchmark whose weak
// scaling the sharded log un-walls, on the software sharded log.
func runFigRecovery() {
	g := scaleOut("fig-recovery", []bench.EngineSpec{bench.DORA()}, tpccSpec("tpcc", newTPCC))
	g.Sockets, g.ShardedLog = socketAxis(), true
	results := g.RunRecovery(bench.Options{Parallel: *parallel})
	for _, r := range results {
		if r.Err != nil {
			fatal(r.Err)
		}
	}
	doc.Recovery = append(doc.Recovery, results...)
	emit(fmt.Sprintf("fig-recovery: crash at measure end, parallel shard replay over %v sockets", g.Sockets),
		bench.RecoveryTable(results))
}

// runFigFailover measures the robustness story (bench.FailoverSpec): the
// replication tax per commit-wait mode, then a faulted primary kill and the
// replica's measured failover. TPC-C on DORA is the workload, like
// fig-recovery: the log-heavy benchmark is the one replication taxes
// hardest. -replication narrows the mode axis to baseline-vs-that-mode.
// The committed BENCH_failover.json baseline is this experiment's -json
// output.
func runFigFailover() {
	spec := bench.FailoverSpec{Grid: scaleOut("fig-failover", []bench.EngineSpec{bench.DORA()}, tpccSpec("tpcc", newTPCC))}
	spec.Sockets, spec.ShardedLog, spec.Replicas = []int{1, 2, 4}, true, *replicas
	if *sockets > 1 {
		spec.Sockets = socketAxis()
	}
	if m := replMode(); m != stats.ReplNone {
		spec.Modes = []stats.ReplMode{stats.ReplNone, m}
	}
	fo, steady := spec.RunFailover(bench.Options{Parallel: *parallel})
	for _, r := range fo {
		if r.Err != nil {
			fatal(r.Err)
		}
	}
	writeObsArtifacts(steady)
	doc.Failover = append(doc.Failover, fo...)
	emit(fmt.Sprintf("fig-failover: replication tax and measured failover over %v sockets, %d replicas",
		spec.Sockets, *replicas), bench.FailoverTable(fo))
}

// anatomySockets is the fig-anatomy socket axis: 1, 4 and 16 — the anchor,
// the knee and the scale-out end of the scaling curves. -quick trims the
// 16-socket end.
func anatomySockets() []int {
	if *quick {
		return capped([]int{1, 4})
	}
	return capped([]int{1, 4, 16})
}

// runFigAnatomy prints where committed transactions' time went, per phase
// (stats.Phases), engine and workload across the socket axis. Phases
// overlap across a transaction's parallel actions, so shares are of summed
// phase time, not of end-to-end latency.
func runFigAnatomy() {
	socks := anatomySockets()
	g := scaleOut("fig-anatomy", bench.Engines(), tatpSpec(), tpccSpec("tpcc", newTPCC), ycsbSpec())
	g.ShardedLog = *shardedLog
	results := runPoints(bySocket(g, socks))
	// One row per phase with samples; its share is of the run's summed
	// phase time.
	type phaseRow struct {
		bench.Result
		phase stats.Phase
		total sim.Duration
	}
	var rows []phaseRow
	for _, r := range results {
		var total sim.Duration
		for _, ph := range stats.Phases() {
			total += r.Res.Anatomy.Phase(ph).Sum()
		}
		for _, ph := range stats.Phases() {
			if r.Res.Anatomy.Phase(ph).Count() > 0 {
				rows = append(rows, phaseRow{r, ph, total})
			}
		}
	}
	run := func(p phaseRow) bench.Result { return p.Result }
	hist := func(p phaseRow) *stats.Histogram { return p.Res.Anatomy.Phase(p.phase) }
	t := bench.Render(rows, nil,
		[]bench.Column[phaseRow]{bench.On(bench.ColWorkload, run), bench.On(bench.ColEngine, run), bench.On(bench.ColSockets, run),
			{Header: "phase", Cell: func(p phaseRow) string { return p.phase.String() }}},
		bench.Int("samples", func(p phaseRow) int64 { return hist(p).Count() }),
		bench.Duration("p50", func(p phaseRow) sim.Duration { return hist(p).Percentile(50) }),
		bench.Duration("p99", func(p phaseRow) sim.Duration { return hist(p).Percentile(99) }),
		bench.Duration("mean", func(p phaseRow) sim.Duration { return hist(p).Mean() }),
		bench.Float("share", "%.0f%%", func(p phaseRow) float64 {
			if p.total <= 0 {
				return 0
			}
			return float64(hist(p).Sum()) / float64(p.total) * 100
		}))
	emit(fmt.Sprintf("fig-anatomy: per-transaction latency anatomy over %v sockets", socks), t)
}

// runSaturation sweeps the probe engine's outstanding-request window. The
// points are independent microbenchmarks, so they fan out through the same
// pool as the grid sweeps.
func runSaturation() {
	windows := []int{1, 2, 4, 8, 12, 16, 24, 32}
	tputs := make([]float64, len(windows))
	utils := make([]float64, len(windows))
	bench.ForEach(len(windows), *parallel, func(i int) {
		tputs[i], utils[i] = treeprobe.Saturation(windows[i], 100000, 400, *seed)
	})
	t := stats.NewTable(">outstanding", ">Mprobes/s", ">pipe util")
	for i, window := range windows {
		t.Row(fmt.Sprintf("%d", window), fmt.Sprintf("%.2f", tputs[i]/1e6), fmt.Sprintf("%.0f%%", utils[i]*100))
	}
	emit("C1: tree-probe engine saturation (Section 5.3: ~a dozen outstanding requests)", t)
}

// runLatencies prints Section 3's latency spectrum — "disk, log, lock wait,
// latch wait, queues, cache miss, jump or branch" — with the modelled value
// of each source and which part of the bionic design addresses it.
func runLatencies() {
	cfg := platform.HC2()
	t := stats.NewTable("latency source", ">modelled", "addressed by (paper section)")
	t.Row("disk I/O", cfg.DiskLat.String(), "resident overlay + bulk merge writes (5.6)")
	t.Row("log flush (group commit)", wal.DefaultManagerConfig().FlushInterval.String(), "hw log insertion + async commit (5.4)")
	t.Row("lock wait", "workload-dependent", "DORA entity locks, deferred actions (5.1)")
	t.Row("latch wait", "~node visit", "eliminated by PLP partitioning (5.1)")
	t.Row("queue hop", (2 * sim.Microsecond).String(), "hw queue engine doorbells (5.5)")
	t.Row("interconnect hop (multi-socket)", cfg.ICHopLat.String(), "socket-local routing + RVP cross-shard commit")
	t.Row("PCIe crossing", (2 * cfg.PCIeLat).String(), "asynchrony + posted writes (5.2)")
	t.Row("cache miss (DRAM)", cfg.DRAMMissLat.String(), "moved to pipelined SG-DRAM (5.3)")
	t.Row("LLC hit", cfg.L3Lat.String(), "-")
	t.Row("branch/jump", cfg.CycleTime().String(), "load-compare-branch in fabric (4)")
	emit("Section 3: the OLTP latency spectrum, from 5ms to 400ps", t)
}
