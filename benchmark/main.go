// Command benchmark is the repository's benchmark: four long serial-kernel
// workloads measured end to end on two clocks (the simulated machine's
// results; the host's cost of producing them) and layer by layer. It drives
// the program only through exported functions and times them from outside.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload tpcc-conv --seed 42 --seconds 10 --trace 0
//	bash benchmark/run.sh                 # every workload, untraced and traced
//	bash benchmark/run.sh -aa 3           # two sets of runs of one seed, compared
//	bash benchmark/run.sh -smoke          # everything once at 1/100 scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	// The four workloads run on the serial kernel, which executes one
	// simulated process at a time; a second P only adds cross-CPU goroutine
	// wake-ups (tpcc-conv's steady phase: 13.1 s at GOMAXPROCS=1, 16.6 s at
	// 2). Set here so that no invocation can measure at another setting by
	// accident.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	aa       int
	aaSeeds  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run this one workload in this process (default: all, one process each)")
	fs.Uint64Var(&c.seed, "seed", 42, "workload seed; reaches the program only as RunConfig.Seed (7 is held out: do not tune on it)")
	fs.Float64Var(&c.seconds, "seconds", nominalSeconds, "run length: scales every simulated window by seconds/10")
	fs.IntVar(&c.trace, "trace", 0, "1: also make the traced pass and print the per-layer metrics")
	fs.BoolVar(&c.smoke, "smoke", false, "every workload once at 1/100 scale in this process, ladder at 1/50 (tests)")
	fs.IntVar(&c.aa, "aa", 0, "run N sets of all workloads twice on one seed, alternating, and compare the two sides")
	fs.BoolVar(&c.aaSeeds, "aa-seeds", false, "with -aa: set i runs on seed+i, as the acceptance protocol does")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || c.trace < 0 || c.trace > 1 || c.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	bf, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := checkWorkloadNames(bf); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case c.smoke:
		err = runSmoke(bf, c, stdout)
	case c.aa > 0:
		err = runAA(bf, c, stdout, stderr)
	case c.workload != "":
		err = runOne(bf, c, stdout)
	default:
		err = runReport(bf, c, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// checkWorkloadNames holds the code's workloads to BENCHMARK.json's list.
func checkWorkloadNames(bf *benchFile) error {
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloadByName(w.Name) == nil {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	return nil
}

// header names the host and the run, as ROADMAP requires of any speed
// number.
func header(bf *benchFile, c config) string {
	return fmt.Sprintf("host_cpus=%d gomaxprocs=%d go=%s seed=%d window_scale=%.3f commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), c.seed, c.seconds/nominalSeconds, gitCommit(bf.root))
}

// runOne measures one workload in this process and prints the result line
// last: the end-to-end metrics untraced, the per-layer metrics traced.
func runOne(bf *benchFile, c config, stdout io.Writer) error {
	spec := workloadByName(c.workload)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	out, err := measureWorkload(spec, runOpts{seed: c.seed, seconds: c.seconds, trace: c.trace == 1,
		start: processStart, outDir: bf.outDir()})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, header(bf, c))
	printOutcome(stdout, bf, out)
	defs, vals := bf.EndToEnd, out.endToEnd
	if c.trace == 1 {
		defs, vals = bf.PerLayer, out.perLayer
	}
	metrics, err := emit(defs, vals)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printOutcome prints every metric by name with its unit.
func printOutcome(w io.Writer, bf *benchFile, out *outcome) {
	fmt.Fprintf(w, "workload %s: %d transactions finished in the window, %d not committed, %d latency samples\n",
		out.workload, out.attempted, out.failed, out.samples)
	if len(out.setups) > 1 {
		fmt.Fprintf(w, "  set-up took %.3f s (a process's first) and then %.3f s\n", out.setups[0], out.setups[1:])
	}
	if out.note != "" {
		fmt.Fprintf(w, "  %s\n", out.note)
	}
	printMetrics(w, bf.EndToEnd, out.endToEnd)
	printMetrics(w, bf.PerLayer, out.perLayer)
	if len(out.spans) > 0 {
		self := selfTimes(out.spans)
		fmt.Fprintln(w, "  spans (host ms: total, self):")
		for i, s := range out.spans {
			depth := 0
			for p := s.Parent; p >= 0; p = out.spans[p].Parent {
				depth++
			}
			fmt.Fprintf(w, "    %*s%-28s %10.1f %10.1f\n", 2*depth, "", s.Name,
				float64(s.End-s.Start)/1e6, float64(self[i])/1e6)
		}
	}
}

// printMetrics prints the metrics of defs that vals holds, by name with unit.
func printMetrics(w io.Writer, defs []metricDef, vals values) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-38s %16.6g %-8s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
}

// smokeSeconds and smokeLadder scale the smoke run: each workload's single
// traced pass at 1/100 of its window, the ladder at 1/50 of its iterations.
// (The issue asked for 1/40 and 1/20 and for tests under 10 s; on the
// reference host only one of the two can be had.)
const (
	smokeSeconds = nominalSeconds / 100.0
	smokeLadder  = 1.0 / 50
)

// runSmoke runs everything once, small, in this process.
func runSmoke(bf *benchFile, c config, stdout io.Writer) error {
	c.seconds = smokeSeconds
	fmt.Fprintln(stdout, header(bf, c))
	outs, err := smokeOutcomes(c.seed, c.seconds, bf.outDir())
	if err != nil {
		return err
	}
	for _, out := range outs {
		if _, err := emit(bf.EndToEnd, out.endToEnd); err != nil {
			return fmt.Errorf("%s: %w", out.workload, err)
		}
		if _, err := emit(bf.PerLayer, out.perLayer); err != nil {
			return fmt.Errorf("%s: %w", out.workload, err)
		}
		printOutcome(stdout, bf, out)
	}
	return nil
}

func smokeOutcomes(seed uint64, seconds float64, outDir string) ([]*outcome, error) {
	ladder := runLadder(smokeLadder, nil)
	var outs []*outcome
	for _, spec := range workloads {
		out, err := measureWorkload(spec, runOpts{seed: seed, seconds: seconds, smoke: true, ladder: ladder, outDir: outDir})
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}
