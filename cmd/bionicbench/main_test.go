package main

import (
	"bytes"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

// resetFlags puts the size, window, replication and -json flags back to
// their defaults.
func resetFlags(t *testing.T) {
	t.Helper()
	for _, name := range []string{"warehouses", "subscribers", "records", "terminals", "measure", "seeds", "sockets", "warmup", "replicas", "replication", "json"} {
		f := flag.Lookup(name)
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", name, err)
		}
	}
}

// TestCheckFlags: each size flag is refused below its floor, naming the flag,
// and accepted at the floor; -replication is refused unless it names a mode;
// -json is refused unless an experiment that measures is selected, naming
// those that do.
func TestCheckFlags(t *testing.T) {
	defer resetFlags(t)
	for _, c := range []struct {
		name string
		p    *int
		min  int
	}{
		{"warehouses", warehouses, 1},
		{"subscribers", subscribers, 1},
		{"records", records, 1},
		{"terminals", terminals, 1},
		{"measure", measureMs, 1},
		{"seeds", seeds, 1},
		{"sockets", sockets, 1},
		{"warmup", warmupMs, 0},
		{"replicas", replicas, 1},
	} {
		for _, v := range []int{c.min - 1, -20} {
			resetFlags(t)
			*c.p = v
			err := checkFlags(nil)
			if err == nil || !strings.Contains(err.Error(), "-"+c.name+" "+strconv.Itoa(v)) {
				t.Errorf("-%s %d: checkFlags(nil) = %v, want an error naming the flag", c.name, v, err)
			}
		}
		resetFlags(t)
		*c.p = c.min
		if err := checkFlags(nil); err != nil {
			t.Errorf("-%s %d: %v", c.name, c.min, err)
		}
	}
	for _, mode := range []string{"bogus", "Async", "on"} {
		resetFlags(t)
		*replication = mode
		if err := checkFlags(nil); err == nil || !strings.Contains(err.Error(), "-replication "+mode) {
			t.Errorf("-replication %s: checkFlags(nil) = %v, want an error naming the flag", mode, err)
		}
	}
	for _, mode := range []string{"off", "none", "async", "sync", "quorum"} {
		resetFlags(t)
		*replication = mode
		if err := checkFlags(nil); err != nil {
			t.Errorf("-replication %s: %v", mode, err)
		}
	}
	resetFlags(t)
	if err := checkFlags(nil); err != nil {
		t.Errorf("defaults: %v", err)
	}
	byFlag := map[string]experiment{}
	for _, e := range experiments {
		byFlag[e.flag] = e
	}
	*jsonOut = "x.json"
	for _, run := range [][]experiment{nil, {byFlag["fig 1"]}, {byFlag["fig 2"], byFlag["latencies"], byFlag["saturation"]}} {
		err := checkFlags(run)
		if err == nil || !strings.Contains(err.Error(), "-json x.json") || !strings.Contains(err.Error(), "-fig 4") ||
			!strings.Contains(err.Error(), "-fig-failover") || strings.Contains(err.Error(), "-fig 1") {
			t.Errorf("-json with %d experiments that measure nothing: checkFlags = %v, want an error naming -json and the experiments that measure", len(run), err)
		}
	}
	for _, run := range [][]experiment{{byFlag["fig 4"]}, {byFlag["fig 1"], byFlag["fig-recovery"]}, experiments} {
		if err := checkFlags(run); err != nil {
			t.Errorf("-json with %d experiments, one measuring: %v", len(run), err)
		}
	}
}

// TestSeedsOnlyWithSweep: -seeds above 1 is refused, naming the flag and the
// experiment, with any experiment selected but -sweep, which alone reads it.
func TestSeedsOnlyWithSweep(t *testing.T) {
	defer resetFlags(t)
	*seeds = 2
	var sweep experiment
	for _, e := range experiments {
		if e.flag == "sweep" {
			sweep = e
		}
	}
	if sweep.flag == "" {
		t.Fatal("no sweep experiment")
	}
	for _, e := range experiments {
		if e.flag == "sweep" {
			continue
		}
		for _, run := range [][]experiment{{e}, {sweep, e}} {
			if err := checkFlags(run); err == nil || !strings.Contains(err.Error(), "-seeds 2") || !strings.Contains(err.Error(), "-"+e.flag) {
				t.Errorf("-seeds 2 with -%s: checkFlags = %v, want an error naming -seeds and -%s", e.flag, err, e.flag)
			}
		}
	}
	if err := checkFlags([]experiment{sweep}); err != nil {
		t.Errorf("-seeds 2 -sweep: %v", err)
	}
	*seeds = 1
	if err := checkFlags(experiments); err != nil {
		t.Errorf("-seeds 1 -all: %v", err)
	}
}

// TestQuickKeepsGivenFlags: -quick shrinks the scales nobody set and leaves
// the ones given on the command line.
func TestQuickKeepsGivenFlags(t *testing.T) {
	defer resetFlags(t)
	if err := flag.Set("warehouses", "8"); err != nil {
		t.Fatal(err)
	}
	applyQuick()
	if *warehouses != 8 {
		t.Errorf("-warehouses 8 -quick ran %d warehouses", *warehouses)
	}
	if *subscribers != 10000 || *records != 10000 || *measureMs != 15 || *warmupMs != 5 {
		t.Errorf("-quick left subscribers %d, records %d, measure %d, warmup %d",
			*subscribers, *records, *measureMs, *warmupMs)
	}
}

// TestAnalyticExperimentsGolden pins the stdout of every experiment that
// runs no engine (-fig 1, -fig 2, -saturation, -latencies, in the table's
// order) against testdata/analytic.txt. Regenerate it with
//
//	(go run ./cmd/bionicbench -fig 1; go run ./cmd/bionicbench -fig 2;
//	 go run ./cmd/bionicbench -saturation -latencies) > cmd/bionicbench/testdata/analytic.txt
func TestAnalyticExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/analytic.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	for _, e := range experiments {
		if !e.json {
			e.run()
		}
	}
	os.Stdout = stdout
	out.Close()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analytic experiments' stdout differs from testdata/analytic.txt:\n%s", got)
	}
}
