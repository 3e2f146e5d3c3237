package treeprobe

import (
	"bytes"
	"fmt"
	"testing"

	"bionicdb/internal/btree"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func fixture() (*sim.Env, *platform.Platform, *Engine, *btree.Tree) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	e := New(pl, DefaultConfig())
	tree := btree.New(btree.Config{
		AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocFPGA(8 << 10) },
	})
	for i := 0; i < 50000; i++ {
		tree.Put(storage.Uint64Key(uint64(i)), []byte(fmt.Sprintf("row%d", i)), nil)
	}
	return env, pl, e, tree
}

func TestProbeReturnsValue(t *testing.T) {
	env, pl, e, tree := fixture()
	env.Spawn("p", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		res := e.Probe(task, tree, storage.Uint64Key(123))
		if !res.Found || !bytes.Equal(res.Val, []byte("row123")) {
			t.Errorf("probe result %+v", res)
		}
		res = e.Probe(task, tree, storage.Uint64Key(999999))
		if res.Found {
			t.Errorf("absent key result %+v", res)
		}
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Probes() != 2 {
		t.Fatalf("probes=%d", e.Probes())
	}
}

func TestProbeLatencyDominatedByPCIeAndSGDRAM(t *testing.T) {
	env, pl, e, tree := fixture()
	var took sim.Duration
	env.Spawn("p", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		start := p.Now()
		e.Probe(task, tree, storage.Uint64Key(1))
		task.Flush()
		took = p.Now().Sub(start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 2us PCIe round trip + height × ~440ns walks.
	min := 2 * sim.Microsecond
	max := 2*sim.Microsecond + sim.Duration(tree.Height()+2)*500*sim.Nanosecond
	if took < min || took > max {
		t.Fatalf("probe latency %v, want in [%v, %v] (height %d)", took, min, max, tree.Height())
	}
}

// TestSaturationNearDozenOutstanding reproduces experiment C1: throughput
// scales with the outstanding-request window and flattens around a dozen,
// the paper's §5.3 estimate.
func TestSaturationNearDozenOutstanding(t *testing.T) {
	t1, _ := Saturation(1, 50000, 200, 7)
	t12, _ := Saturation(12, 50000, 200, 7)
	t24, _ := Saturation(24, 50000, 200, 7)
	t.Logf("probes/s at windows 1, 12, 24: %.0f, %.0f, %.0f", t1, t12, t24)
	if t12 < 5*t1 {
		t.Fatalf("window 12 should be >5x window 1: %.0f vs %.0f", t12, t1)
	}
	// Beyond saturation, little additional gain.
	if t24 > 1.2*t12 {
		t.Fatalf("window 24 (%.0f) should be within 20%% of window 12 (%.0f): pipeline not saturating", t24, t12)
	}
}

func TestProbeChargesBtreeComponentOnly(t *testing.T) {
	env, pl, e, tree := fixture()
	bd := &stats.Breakdown{}
	env.Spawn("p", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		e.Probe(task, tree, storage.Uint64Key(5))
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(stats.CompBtree) == 0 {
		t.Fatal("no Btree time charged")
	}
	// The CPU-side Btree charge must be small: most time is off-CPU.
	if bd.Get(stats.CompBtree) > sim.Duration(500)*sim.Nanosecond {
		t.Fatalf("CPU-side probe cost %v too high", bd.Get(stats.CompBtree))
	}
}

func TestCoreFreeDuringProbe(t *testing.T) {
	env, pl, e, tree := fixture()
	env.Spawn("prober", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		e.Probe(task, tree, storage.Uint64Key(3))
		task.Flush()
	})
	var gotCore sim.Time
	env.Spawn("cpu-work", func(p *sim.Proc) {
		p.Wait(200 * sim.Nanosecond) // probe is mid-flight by now
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		task.Exec(stats.CompOther, 100)
		task.Flush()
		gotCore = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The sibling got the core long before the probe finished (~2us+).
	if gotCore > sim.Time(1*sim.Microsecond) {
		t.Fatalf("core was held during hardware probe: sibling ran at %v", gotCore)
	}
}

// TestProbeParksTwice pins the host cost of a probe as an exact count. The
// unit is idle, but a callback every 50ns keeps every wait of the probe off
// the kernel's direct-advance path, as the other terminals do in an engine
// run, so each blocking step would park if the process made it itself: 14 to
// 15 resumes for a 3-level tree before kernel scripts. With scripts the
// process parks for the request leg, and for the walk plus the completion
// leg.
func TestProbeParksTwice(t *testing.T) {
	env, pl, e, tree := fixture()
	if tree.Height() != 3 {
		t.Fatalf("fixture tree has %d levels, want 3", tree.Height())
	}
	done := false
	var tick func()
	tick = func() {
		if !done {
			env.At(env.Now().Add(50*sim.Nanosecond), tick)
		}
	}
	env.At(0, tick)
	var resumes uint64
	env.Spawn("p", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		before := env.Switches()
		res := e.Probe(task, tree, storage.Uint64Key(4242))
		resumes = env.Switches() - before
		if !res.Found {
			t.Error("probe missed")
		}
		done = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if resumes != 2 {
		t.Errorf("%d resumes, want 2", resumes)
	}
}

// Probes returns the number of accepted probe requests.
func (e *Engine) Probes() int64 { return e.probes }
