package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is the
// single source of names, units, directions and bounds; the code computes a
// value for every name and refuses to report when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile mirrors BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	root string // the directory BENCHMARK.json was found in
}

// outDir is where traces, profiles and the summary go.
func (bf *benchFile) outDir() string { return filepath.Join(bf.root, "benchmark", "out") }

// loadBenchFile reads BENCHMARK.json from the root of the checkout: the
// nearest directory at or above the working directory that holds one, so the
// benchmark runs from the root, from its own directory or from below it.
func loadBenchFile() (*benchFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bf := benchFile{root: dir}
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 || len(bf.Workloads) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: needs workloads, end_to_end and per_layer")
	}
	return &bf, nil
}

// values holds one run's measurements by metric name.
type values map[string]float64

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs defs with vals: every declared metric must have been measured
// and nothing else may have been.
func emit(defs []metricDef, vals values) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %v", extra)
	}
	return out, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}
