package bench

import (
	"reflect"
	"runtime"
	"testing"

	"bionicdb/internal/obs"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// This file is the observability equivalence matrix: the flight recorder
// (span tracing + time-series telemetry) is strictly out-of-band, so every
// pinned golden digest must be bit-identical with it on or off, at any
// GOMAXPROCS. A recorder that consumed simulated time, energy, or a random
// draw would shift a digest and fail here.

// fullObs returns the everything-on recorder options the matrix runs under.
func fullObs() *obs.Options {
	return &obs.Options{Trace: true, Metrics: true}
}

// withObs returns the points with the recorder options overridden.
func withObs(points []Point, o *obs.Options) []Point {
	out := make([]Point, len(points))
	for i, p := range points {
		p.Obs = o
		out[i] = p
	}
	return out
}

// mustRun executes points and fails the test on any per-point error.
func mustRun(t *testing.T, name string, points []Point, opt Options) []Result {
	t.Helper()
	results := Run(points, opt)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %s/%s failed: %v", name, r.Point.Workload.Name, r.Point.Engine.Name, r.Err)
		}
	}
	return results
}

// TestSpecsPropagateObs pins the options plumbing: every spec type that
// expands to points must carry its Obs into each of them, and Point.Run
// must hand it to the harness (witnessed by the trace and telemetry
// artifacts coming back on the result).
func TestSpecsPropagateObs(t *testing.T) {
	o := fullObs()
	grid := goldenGrid()
	grid.Obs = o
	scaling := goldenScalingSpec()
	scaling.Obs = o
	htap := goldenHTAPSpec()
	htap.Obs = o
	for name, points := range map[string][]Point{
		"grid":    grid.Points(),
		"scaling": scaling.Points(),
		"htap":    htap.Points(),
	} {
		if len(points) == 0 {
			t.Fatalf("%s: no points", name)
		}
		for _, p := range points {
			if p.Obs != o {
				t.Errorf("%s: point %s/%s dropped Obs", name, p.Workload.Name, p.Engine.Name)
			}
		}
	}
	g := goldenGrid()
	r := g.Points()[0]
	r.Obs = o
	res := r.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Res.Trace == nil || len(res.Res.Trace.Merged()) == 0 {
		t.Error("traced run returned no spans")
	}
	if res.Res.Metrics == nil || len(res.Res.Metrics.Samples()) == 0 {
		t.Error("sampled run returned no telemetry")
	}
	if res.Res.Anatomy.Samples() == 0 {
		t.Error("run recorded no latency anatomy")
	}
}

// TestObsEquivalenceMatrix asserts every pinned golden digest — the quick
// grid, the multi-socket scaling sweep, the hybrid sweep and the
// sharded-log software-DORA sweep — is reproduced bit for bit with tracing
// and telemetry enabled. The recorder artifacts must also be non-empty, so a
// silently detached recorder cannot pass as zero perturbation.
func TestObsEquivalenceMatrix(t *testing.T) {
	quick := goldenGrid()
	families := []struct {
		name   string
		points []Point
		golden string
	}{
		{"fig3-fig4-quick", quick.Points(), goldenDigest},
		{"scaling-golden", goldenScalingSpec().Points(), goldenScalingDigest},
		{"htap-golden", goldenHTAPSpec().Points(), goldenHTAPDigest},
		{"sharded-dora", goldenShardedDORASpec().Points(), goldenShardedDORADigest},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			results := mustRun(t, fam.name, withObs(fam.points, fullObs()), Options{Parallel: 4})
			if got := Digest(results); got != fam.golden {
				t.Errorf("recorder on diverged from golden:\n got  %s\n want %s", got, fam.golden)
			}
			for _, r := range results {
				if r.Res.Trace == nil || len(r.Res.Trace.Merged()) == 0 {
					t.Errorf("%s/%s x%d: traced run returned no spans",
						r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
				}
				if r.Res.Metrics == nil || len(r.Res.Metrics.Samples()) == 0 {
					t.Errorf("%s/%s x%d: sampled run returned no telemetry",
						r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
				}
			}
		})
	}
}

// TestObsGOMAXPROCSInvariance asserts the recorder changes nothing under
// host-parallelism changes either: the sweep's worker pool with tracing and
// telemetry on every point produces the golden scaling digest at
// GOMAXPROCS=1 and GOMAXPROCS=8 alike.
func TestObsGOMAXPROCSInvariance(t *testing.T) {
	points := withObs(goldenScalingSpec().Points(), fullObs())
	prev := runtime.GOMAXPROCS(1)
	one := Digest(mustRun(t, "obs-gomaxprocs1", points, Options{Parallel: 4}))
	runtime.GOMAXPROCS(8)
	many := Digest(mustRun(t, "obs-gomaxprocs8", points, Options{Parallel: 4}))
	runtime.GOMAXPROCS(prev)
	if one != many {
		t.Errorf("recorder digest depends on GOMAXPROCS:\n 1: %s\n N: %s", one, many)
	}
	if one != goldenScalingDigest {
		t.Errorf("recorder on diverged from golden:\n got  %s\n want %s", one, goldenScalingDigest)
	}
}

// TestObsEquivalenceFailover asserts the replication/failover family is
// untouched by the recorder: the full per-point failover measurements are
// DeepEqual and the steady-state digests identical with it on vs off.
func TestObsEquivalenceFailover(t *testing.T) {
	spec := FailoverSpec{
		Sockets:            []int{1, 2},
		Modes:              []stats.ReplMode{stats.ReplNone, stats.ReplSync},
		Replicas:           2,
		Workload:           func(sockets int) WorkloadSpec { return smallTPCC() },
		ShardedLog:         true,
		TerminalsPerSocket: 4,
		Seed:               42,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
	offFo, offSteady := spec.RunFailover(Options{Parallel: 2})
	spec.Obs = fullObs()
	onFo, onSteady := spec.RunFailover(Options{Parallel: 2})
	for i := range offFo {
		if offFo[i].Err != nil || onFo[i].Err != nil {
			t.Fatalf("x%d/%v: off err %v, on err %v",
				offFo[i].Sockets, offFo[i].Mode, offFo[i].Err, onFo[i].Err)
		}
	}
	if !reflect.DeepEqual(offFo, onFo) {
		t.Errorf("failover results diverge with the recorder on:\noff %+v\non  %+v", offFo, onFo)
	}
	if doff, don := Digest(offSteady), Digest(onSteady); doff != don {
		t.Errorf("steady-state digests diverge with the recorder on: off %s vs on %s", doff, don)
	}
}
