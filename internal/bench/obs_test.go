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

// TestSpecsPropagateObs pins the options plumbing: the grid must carry its
// Obs into every point, Point.Run must hand it to the harness (witnessed by
// the trace and telemetry artifacts coming back on the result), and the
// failover spec must trace its steady-state runs.
func TestSpecsPropagateObs(t *testing.T) {
	o := fullObs()
	grid := goldenScalingGrid()
	grid.Obs = o
	for _, p := range grid.Points() {
		if p.Obs != o {
			t.Errorf("point %s/%s x%d dropped Obs", p.Workload.Name, p.Engine.Name, p.Sockets)
		}
	}
	fo := FailoverSpec{
		Grid:  failoverGrid(smallTPCC(), []int{1}, 4, 1*sim.Millisecond, 3*sim.Millisecond),
		Modes: []stats.ReplMode{stats.ReplNone},
	}
	fo.Obs = o
	_, steady := fo.RunFailover(Options{Parallel: 1})
	g := goldenGrid()
	r := g.Points()[0]
	r.Obs = o
	for _, res := range append(steady, r.Run()) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Res.Trace == nil || len(res.Res.Trace.Merged()) == 0 {
			t.Errorf("%s: traced run returned no spans", res.Point.Group)
		}
		if res.Res.Metrics == nil || len(res.Res.Metrics.Samples()) == 0 {
			t.Errorf("%s: sampled run returned no telemetry", res.Point.Group)
		}
		if res.Res.Anatomy.Samples() == 0 {
			t.Errorf("%s: run recorded no latency anatomy", res.Point.Group)
		}
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
		{"scaling-golden", goldenScalingGrid().Points(), goldenScalingDigest},
		{"htap-golden", goldenHTAPGrid().Points(), goldenHTAPDigest},
		{"sharded-dora", goldenShardedDORAGrid().Points(), goldenShardedDORADigest},
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
	points := withObs(goldenScalingGrid().Points(), fullObs())
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
		Grid:  failoverGrid(smallTPCC(), []int{1, 2}, 4, 1*sim.Millisecond, 3*sim.Millisecond),
		Modes: []stats.ReplMode{stats.ReplNone, stats.ReplSync},
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
