// Flight-recorder walkthrough: runs TATP on the DORA engine at one and
// four sockets with the observability layer attached, writes the
// four-socket run's span trace (Chrome trace_event JSON — open it in
// chrome://tracing or Perfetto) and its telemetry time series, and prints
// the per-phase latency anatomy of each run. The recorder is strictly
// out-of-band: the commits, joules and latency numbers printed here are
// bit-identical to the same sweep with the recorder detached.
package main

import (
	"flag"
	"fmt"
	"os"

	"bionicdb"
	"bionicdb/internal/obs"
	"bionicdb/internal/stats"
)

func main() {
	sockets := flag.Int("sockets", 4, "socket count of the instrumented run")
	measureMs := flag.Int("measure", 5, "measurement window, simulated ms")
	traceOut := flag.String("trace-out", "trace.json", "span trace output path")
	metricsOut := flag.String("metrics-out", "metrics.csv", "telemetry output path (.json = JSON, else CSV)")
	flag.Parse()

	sweep := bionicdb.SweepGrid{
		Sockets: []int{1, *sockets},
		Workloads: []bionicdb.WorkloadSpec{
			{Name: "tatp", Make: func(int) bionicdb.Workload {
				return bionicdb.NewTATP(bionicdb.TATPConfig{Subscribers: 20000})
			}},
		},
		Engines:   []bionicdb.EngineSpec{bionicdb.DORASpec()},
		Terminals: []int{16}, // per socket
		// Per-socket log devices: each socket's lane then shows its own
		// durability waits, and cross-socket transactions their decision
		// rounds.
		ShardedLog: true,
		Warmup:     1 * bionicdb.Millisecond,
		Measure:    bionicdb.Duration(*measureMs) * bionicdb.Millisecond,
		// The whole point: spans + telemetry on every point of the sweep.
		Obs: &obs.Options{Trace: true, Metrics: true},
	}

	points := sweep.Points()
	fmt.Printf("TATP on dora at 1 and %d sockets, flight recorder attached (%d runs)...\n\n",
		*sockets, len(points))
	results := bionicdb.Sweep(points, bionicdb.SweepOptions{})

	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s @%d sockets: %v\n", r.Point.Engine.Name, r.Point.Sockets, r.Err)
			os.Exit(1)
		}
	}

	// Per-phase latency anatomy of each run. Queue time dominates under
	// load; durability is the log device; cross-shard only appears once
	// transactions span sockets.
	for _, r := range results {
		res := r.Res
		fmt.Printf("%s @%d sockets: %d commits, %.0f tps\n",
			r.Point.Engine.Name, r.Point.Sockets, res.Commits, res.TPS)
		fmt.Printf("  %-12s %10s %10s %10s %10s\n", "phase", "samples", "p50(us)", "p99(us)", "share")
		total := 0.0
		for _, p := range stats.Phases() {
			total += res.Anatomy.Phase(p).Sum().Microseconds()
		}
		for _, p := range stats.Phases() {
			h := res.Anatomy.Phase(p)
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("  %-12s %10d %10.1f %10.1f %9.1f%%\n",
				p.String(), h.Count(),
				h.Percentile(50).Microseconds(), h.Percentile(99).Microseconds(),
				100*h.Sum().Microseconds()/total)
		}
		fmt.Println()
	}

	// Export the multi-socket run's artifacts: one trace lane per socket
	// and a fixed-tick telemetry series (queue depths, log backlog, LLC/DRAM
	// traffic).
	last := results[len(results)-1].Res
	if err := obs.WriteTraceFile(*traceOut, last.Trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := last.Metrics.WriteMetricsFile(*metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spans := last.Trace.Merged()
	fmt.Printf("wrote %s (%d spans, %d dropped)\n", *traceOut, len(spans), last.Trace.Dropped())
	fmt.Printf("wrote %s (%d samples)\n", *metricsOut, len(last.Metrics.Samples()))
}
