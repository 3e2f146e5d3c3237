package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runChild measures one workload in a process of its own (one OS process
// per workload run, so no run inherits another's heap or caches) and
// returns the result line it printed last.
func runChild(workload string, seed uint64, seconds float64, trace int, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s: run reported incorrect outputs", workload)
	}
	return &r, nil
}

// runReport measures every workload untraced and traced, prints every
// metric by name with its unit, and writes the same as out/summary.json.
// The summary claims nothing: it is a baseline, not a comparison.
func runReport(bf *benchFile, c config, stdout, stderr io.Writer) error {
	type workloadSummary struct {
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		EndToEnd  map[string]metricOut `json:"end_to_end"`
		PerLayer  map[string]metricOut `json:"per_layer"`
	}
	summary := struct {
		Host      map[string]any             `json:"host"`
		Workloads map[string]workloadSummary `json:"workloads"`
		Claim     *string                    `json:"claim"`
	}{
		Host: map[string]any{
			"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"seed": c.seed, "window_scale": c.seconds / nominalSeconds, "commit": gitCommit(bf.root),
		},
		Workloads: map[string]workloadSummary{},
	}
	fmt.Fprintln(stdout, header(bf, c))
	for _, w := range bf.Workloads {
		e2e, err := runChild(w.Name, c.seed, c.seconds, 0, stderr)
		if err != nil {
			return err
		}
		layers, err := runChild(w.Name, c.seed, c.seconds, 1, stderr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workload %s (%s): %d transactions finished in the window, %d not committed\n",
			w.Name, w.Why, e2e.Attempted, e2e.Failed)
		for _, group := range []struct {
			defs []metricDef
			outs map[string]metricOut
		}{{bf.EndToEnd, e2e.Metrics}, {bf.PerLayer, layers.Metrics}} {
			vals := values{}
			for name, m := range group.outs {
				vals[name] = m.Value
			}
			printMetrics(stdout, group.defs, vals)
		}
		summary.Workloads[w.Name] = workloadSummary{e2e.Attempted, e2e.Failed, e2e.Metrics, layers.Metrics}
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(bf.outDir(), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(bf.outDir(), "summary.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// runAA runs the same code as two sides, A and B: N runs of every workload
// each, the side that goes first alternating. On one seed (the default) the
// two sides differ by the host's repeat noise alone, and every simulated
// metric must read the same in all 2N runs, bit for bit. With -aa-seeds, run
// i of both sides is on seed+i: the acceptance protocol in small, whose
// spreads are mostly what another seed does to the workload, and which the
// bounds in BENCHMARK.json have to cover. Per metric it prints both medians
// and quartiles, each side's spread (interquartile distance over median) and
// how much worse B's median is than A's, and fails when the sides disagree
// by more than the metric's bound or, under the acceptance protocol, when a
// spread exceeds it (set-up's spread is exempt).
func runAA(bf *benchFile, c config, stdout, stderr io.Writer) error {
	type key struct{ side, workload, metric string }
	samples := map[key][]float64{}
	seedOf := func(i int) uint64 {
		if c.aaSeeds {
			return c.seed + uint64(i)
		}
		return c.seed
	}
	for i := 0; i < c.aa; i++ {
		sides := []string{"A", "B"}
		if i%2 == 1 {
			sides = []string{"B", "A"}
		}
		for _, side := range sides {
			for _, w := range bf.Workloads {
				fmt.Fprintf(stderr, "aa: set %d/%d side %s %s\n", i+1, c.aa, side, w.Name)
				r, err := runChild(w.Name, seedOf(i), c.seconds, 0, stderr)
				if err != nil {
					return err
				}
				for name, m := range r.Metrics {
					k := key{side, w.Name, name}
					samples[k] = append(samples[k], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "# A/A: two sets of %d runs of the same code, seeds %d..%d\n\n`%s`\n\n",
		c.aa, seedOf(0), seedOf(c.aa-1), header(bf, c))
	fmt.Fprintln(stdout, "`worse` is how much worse B's median is than A's, as a share of A's; `spread` is (q3 - q1) / median over a side's runs.")
	failures := 0
	for _, w := range bf.Workloads {
		fmt.Fprintf(stdout, "\n## %s\n\n| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | worse | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n", w.Name)
		for _, d := range bf.EndToEnd {
			a, b := samples[key{"A", w.Name, d.Name}], samples[key{"B", w.Name, d.Name}]
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case !c.aaSeeds && simulated(d.Name) && !allEqual(append(a, b...)):
				verdict = "FAIL: a simulated result changed between runs of one seed"
				failures++
			case math.Abs(worse) > d.Bound:
				verdict = "FAIL: sides disagree"
				failures++
			case d.Name == "setup_s":
			case c.aaSeeds && math.Max(sa, sb) > d.Bound:
				verdict = "FAIL: spread above bound"
				failures++
			case math.Max(sa, sb) > d.Bound:
				verdict = "ok (spread above bound)"
			case math.Max(sa, sb) > d.Bound/3:
				verdict = "ok (spread above bound/3)"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.2f%% | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				d.Name, d.Unit, am, aq1, aq3, bm, bq1, bq3, sa*100, sb*100, worse*100, d.Bound*100, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("aa: %d metric(s) outside their bounds", failures)
	}
	return nil
}

// simulated reports whether an end-to-end metric comes from the simulated
// machine: a pure function of (workload, seed, seconds).
func simulated(name string) bool { return strings.HasPrefix(name, "sim_") || name == "commit_share" }

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}
