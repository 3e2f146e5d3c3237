package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke runs every workload once at smoke scale and shares the result
// between tests: it is the one expensive thing here.
var smoke struct {
	outs []*outcome
	err  error
	took time.Duration
	done bool
}

func smokeRun(t *testing.T) []*outcome {
	t.Helper()
	if !smoke.done {
		t0 := time.Now()
		smoke.outs, smoke.err = smokeOutcomes(42, smokeSeconds, t.TempDir())
		smoke.took, smoke.done = time.Since(t0), true
	}
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.outs
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric and workload BENCHMARK.json names is emitted exactly once
// per workload, under a well-formed name, and nothing else is.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWorkloadNames(bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not well formed", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	outs := smokeRun(t)
	if len(outs) != len(bf.Workloads) {
		t.Fatalf("smoke ran %d workloads, BENCHMARK.json names %d", len(outs), len(bf.Workloads))
	}
	for i, out := range outs {
		if out.workload != bf.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, out.workload, bf.Workloads[i].Name)
		}
		e2e, err := emit(bf.EndToEnd, out.endToEnd)
		if err != nil {
			t.Errorf("%s: %v", out.workload, err)
		}
		if _, err := emit(bf.PerLayer, out.perLayer); err != nil {
			t.Errorf("%s: %v", out.workload, err)
		}
		for name, m := range e2e {
			if m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", out.workload, name, m.Value)
			}
		}
		if out.attempted < 1 || out.failed < 0 || out.failed > out.attempted {
			t.Errorf("%s: attempted %d, failed %d", out.workload, out.attempted, out.failed)
		}
	}
	if smoke.took > 5*time.Second {
		t.Logf("smoke took %v; the budget is 5 s on the reference host", smoke.took)
	}
}

// host_share.* partitions the CPU samples: it sums to 1 on every workload.
func TestHostSharesSumToOne(t *testing.T) {
	for _, out := range smokeRun(t) {
		sum, n := 0.0, 0
		for name, v := range out.perLayer {
			if strings.HasPrefix(name, "host_share.") {
				sum += v
				n++
			}
		}
		if n != len(hostShareNames) {
			t.Errorf("%s: %d host_share metrics, want %d", out.workload, n, len(hostShareNames))
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: host_share.* sums to %v", out.workload, sum)
		}
	}
}

// The same seed gives identical simulated results; another seed, other ones.
func TestSimulatedResultsFollowTheSeed(t *testing.T) {
	first := smokeRun(t)[2] // ycsb-dora-4s sets up fastest
	spec := workloadByName(first.workload)
	run := func(seed uint64) values {
		out, err := measureWorkload(spec, runOpts{seed: seed, seconds: smokeSeconds, smoke: true, ladder: values{}, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return out.endToEnd
	}
	again, other := run(42), run(43)
	differs := false
	for _, name := range []string{"sim_tps", "sim_uj_per_txn", "sim_mean_us", "sim_p50_us", "sim_p99_us", "commit_share"} {
		if again[name] != first.endToEnd[name] {
			t.Errorf("%s: seed 42 gave %v then %v", name, first.endToEnd[name], again[name])
		}
		if other[name] != first.endToEnd[name] {
			differs = true
		}
	}
	if !differs {
		t.Error("seed 43 reproduced every simulated result of seed 42")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "run", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "setup", Start: ms(0), End: ms(30), Parent: 0},
		{Name: "core.build", Start: ms(0), End: ms(5), Parent: 1},
		{Name: "workload.populate", Start: ms(5), End: ms(25), Parent: 1},
		{Name: "steady", Start: ms(30), End: ms(90), Parent: 0},
	}
	want := []time.Duration{ms(10), ms(5), ms(5), ms(20), ms(60)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	tr := newTracer("w")
	tr.begin("a")
	tr.begin("b")
	tr.end()
	tr.add("c", processStart.Add(ms(1)), processStart.Add(ms(2)))
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	if d := tr.duration("c"); d != ms(1) {
		t.Errorf("duration(c) = %v", d)
	}
	var none *tracer
	none.begin("x") // a nil tracer records nothing and does not panic
	none.end()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"traceEvents"`) {
		t.Errorf("trace file: %v %s", err, b)
	}
}

func TestSummariser(t *testing.T) {
	// The cut points Python's statistics.quantiles(v, n=4) gives.
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestQuantileEstimate(t *testing.T) {
	// Three buckets answering 10, 20 and 40 and holding 20 %, 60 % and 20 %
	// of the samples; the minimum is 8 and the mean 30, so the last bucket's
	// mean is (30 - 0.2*10 - 0.6*20) / 0.2 = 80, and its lower edge lies at 30.
	step := func(p float64) float64 {
		switch {
		case p < 20:
			return 10
		case p < 80:
			return 20
		}
		return 40
	}
	bs := buckets(step)
	want := []bucket{{10, 0, 20}, {20, 20, 80}, {40, 80, 100}}
	if len(bs) != len(want) {
		t.Fatalf("buckets = %v", bs)
	}
	for i, b := range bs {
		if b.v != want[i].v || math.Abs(b.from-want[i].from) > 1e-9 || math.Abs(b.to-want[i].to) > 1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, b, want[i])
		}
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 20},                      // the middle of the middle bucket
		{65, 20 + 20*15/40.},          // towards the last bucket, whose middle is at 90 %
		{30, 10 + 10*20/40.},          // from the first bucket, whose middle is at 10 %
		{5, 8 + 2*5/10.},              // the first bucket, from the minimum at 0 %
		{80, 30},                      // the last bucket starts at its lower edge
		{90, 30 + 50*math.Log(2)},     // half of an exponential tail of mean 80 - 30 lies beyond
		{99, 30 + 50*math.Log(20/1.)}, // and a twentieth beyond this
	} {
		if got := quantile(bs, c.p, 8, 30); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// A distribution narrower than one bucket: nothing above to interpolate
	// towards, the minimum below.
	one := buckets(func(float64) float64 { return 60 })
	if len(one) != 1 || one[0] != (bucket{60, 0, 100}) {
		t.Fatalf("buckets of a constant = %v", one)
	}
	for _, c := range []struct{ p, want float64 }{{25, 59}, {50, 60}, {99, 60}} {
		if got := quantile(one, c.p, 58, 60.5); got != c.want {
			t.Errorf("single bucket: quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	stacks, err := parseTraces(`File: benchmark
Type: cpu
Duration: 1.2s, Total samples = 3
-----------+-------------------------------------------------------
         2   bytes.Compare (inline)
             bionicdb/internal/btree.(*Tree).Get
             main.main
-----------+-------------------------------------------------------
         1   runtime.mallocgc
-----------+-------------------------------------------------------
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || stacks[0].count != 2 || stacks[1].count != 1 ||
		strings.Join(stacks[0].frames, " ") != "bytes.Compare bionicdb/internal/btree.(*Tree).Get main.main" ||
		strings.Join(stacks[1].frames, " ") != "runtime.mallocgc" {
		t.Errorf("parseTraces = %+v", stacks)
	}
	if _, err := parseTraces("-----\n  main.main\n"); err == nil {
		t.Error("a stack without a sample count parsed")
	}
}

func TestClassifyStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"bytes.Compare", "bionicdb/internal/btree.(*Tree).Get", "bionicdb/internal/core.(*convCtx).Read"}, "btree"},
		{[]string{"runtime.casgstatus", "runtime.gopark", "runtime.chanrecv", "bionicdb/internal/sim.(*Proc).park"}, "runtime_sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "bionicdb/internal/wal.(*Record).Encode"}, "runtime_gc_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc_malloc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_sched"},
		{[]string{"bionicdb/internal/hw/treeprobe.(*Engine).Probe"}, "hw"},
		{[]string{"bionicdb/internal/workload/tpcc.(*Workload).NewOrder.func1"}, "workload"},
		{[]string{"runtime.memmove", "main.main"}, "other"},
	} {
		if got := classifyStack(c.frames); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
