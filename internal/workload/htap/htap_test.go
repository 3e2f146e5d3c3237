package htap

import (
	"fmt"
	"testing"

	"bionicdb/internal/btree"
	"bionicdb/internal/columnar"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

func smallYCSBMixed() *Mixed {
	cfg := ycsb.WorkloadA()
	cfg.Records = 2000
	return NewYCSB(cfg, DefaultParams())
}

func smallTPCCMixed() *Mixed {
	return NewTPCC(tpcc.SmallConfig(), DefaultParams())
}

// runMixed runs one small hybrid measurement and returns the result, the
// engine (still readable after the run; ScanRaw is untimed) and the mirror.
func runMixed(t *testing.T, wl *Mixed, mk func(env *sim.Env, wl core.Workload) core.Engine) (*core.Result, core.Engine, *Run) {
	t.Helper()
	var eng core.Engine
	cfg := core.RunConfig{
		Terminals: 8,
		Warmup:    1 * sim.Millisecond,
		Measure:   5 * sim.Millisecond,
		Seed:      42,
		Analytics: wl,
	}
	res, err := core.Run(cfg, wl, func(env *sim.Env) core.Engine {
		eng = mk(env, wl)
		return eng
	})
	if err != nil {
		t.Fatal(err)
	}
	mr := wl.LastRun()
	if mr == nil {
		t.Fatal("analytics never attached")
	}
	return res, eng, mr
}

func conventionalMk(env *sim.Env, wl core.Workload) core.Engine {
	return core.NewConventional(env, platform.HC2(), wl.Tables())
}

func bionicMk(env *sim.Env, wl core.Workload) core.Engine {
	return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(4), core.AllOffloads(), 8)
}

// engineCases are the two maintenance paths: host-refresh (conventional)
// and merge-fed hardware (bionic).
func engineCases() []struct {
	name   string
	mk     func(env *sim.Env, wl core.Workload) core.Engine
	wantHW bool
} {
	return []struct {
		name   string
		mk     func(env *sim.Env, wl core.Workload) core.Engine
		wantHW bool
	}{
		{"conventional", conventionalMk, false},
		{"bionic", bionicMk, true},
	}
}

// TestFreshnessInvariants pins the staleness contract on both maintenance
// paths: every scan's observed snapshot vector is elementwise <= the
// durable vector at scan start (zero violations — the projection never gets
// ahead of durability), and observed staleness never exceeds twice the
// maintenance interval (one interval of waiting plus one pass).
func TestFreshnessInvariants(t *testing.T) {
	for _, tc := range engineCases() {
		for _, wl := range []*Mixed{smallYCSBMixed(), smallTPCCMixed()} {
			t.Run(tc.name+"/"+wl.Name(), func(t *testing.T) {
				res, _, mr := runMixed(t, wl, tc.mk)
				if mr.HW() != tc.wantHW {
					t.Fatalf("maintenance path hw=%v, want %v", mr.HW(), tc.wantHW)
				}
				if res.Scan == nil {
					t.Fatal("Result.Scan is nil on an HTAP run")
				}
				if res.Scan.Scans == 0 {
					t.Fatal("no scans completed inside the measurement window")
				}
				st := mr.Stats() // cumulative, covers warmup and drain too
				if st.SnapViolations != 0 {
					t.Errorf("%d snapshot-vector violations; scans saw state ahead of the durable point", st.SnapViolations)
				}
				if st.Refreshes < 2 {
					t.Fatalf("only %d freshness stamps; maintenance path never ran", st.Refreshes)
				}
				if st.StaleMax > st.GapMax {
					t.Errorf("max observed staleness %v exceeds max refresh gap %v", st.StaleMax, st.GapMax)
				}
				bound := 2 * (10 * sim.Millisecond) // interval + one pass, both paths refresh every 10ms
				if st.GapMax > bound {
					t.Errorf("max refresh gap %v exceeds staleness bound %v", st.GapMax, bound)
				}
			})
		}
	}
}

// TestScanEquivalenceAtQuiesce pins projection maintenance against a serial
// rescan: after the run quiesces (final merge/refresh drain included), every
// live projection must hold exactly the rows a fresh rebuild from the row
// store produces — the incremental path loses nothing and invents nothing.
func TestScanEquivalenceAtQuiesce(t *testing.T) {
	for _, tc := range engineCases() {
		for _, mkwl := range []func() *Mixed{smallYCSBMixed, smallTPCCMixed} {
			wl := mkwl()
			t.Run(tc.name+"/"+wl.Name(), func(t *testing.T) {
				_, eng, mr := runMixed(t, wl, tc.mk)
				env2 := sim.NewEnv()
				defer env2.Close()
				pl2 := platform.New(env2, platform.HC2())
				for _, spec := range wl.Specs() {
					live := mr.Projection(spec.Name)
					rebuilt := BuildProjection(pl2, spec, func(fn func(k, v []byte) bool) {
						eng.ScanRaw(spec.Table, nil, nil, fn)
					})
					if live.Rows() == 0 {
						t.Errorf("%s: live projection is empty", spec.Name)
					}
					if got, want := live.ContentDigest(), rebuilt.ContentDigest(); got != want {
						t.Errorf("%s: live projection diverged from serial rescan (%d vs %d rows)\n live    %s\n rescan  %s",
							spec.Name, live.Rows(), rebuilt.Rows(), got, want)
					}
				}
			})
		}
	}
}

// TestHostRefreshMatchesRescan compares the host path's projections with a
// rescan between refreshes, not only at quiesce. A checker process rescans
// the row store and runs one refresh pass right after it: both are untimed
// up to the pass's park, so they see the same rows, and once the pass
// returns each projection must match its rescan. Transactions run
// throughout, and the trees reuse the bytes of rows no attempt can still
// read (btree.Reclaimer): a pass that held its row views across its park
// would apply bytes a later row version has taken since. YCSB at 20 000
// rows and 32 terminals parks each pass about 385 µs, long enough for its
// hot rows to be replaced and their bytes reused meanwhile.
func TestHostRefreshMatchesRescan(t *testing.T) {
	params := DefaultParams()
	params.RefreshInterval = sim.Second // the checker's passes are the only ones
	ycsbCfg := ycsb.WorkloadA()
	ycsbCfg.Records = 20000
	for _, wl := range []*Mixed{NewYCSB(ycsbCfg, params), NewTPCC(tpcc.SmallConfig(), params)} {
		t.Run(wl.Name(), func(t *testing.T) {
			s := core.Open(wl, 42, func(env *sim.Env) core.Engine { return conventionalMk(env, wl) })
			defer s.Close()
			mr := wl.Attach(s.Env, s.Eng, s.Split()).(*Run)
			s.Start(32, nil, nil)
			env2 := sim.NewEnv()
			defer env2.Close()
			pl2 := platform.New(env2, platform.HC2())
			const passes = 5
			done := 0
			s.Env.Spawn("checker", func(p *sim.Proc) {
				want := make([]string, len(mr.tables))
				for ; done < passes; done++ {
					p.Wait(sim.Millisecond)
					for i, pt := range mr.tables {
						want[i] = BuildProjection(pl2, pt.spec, func(fn func(k, v []byte) bool) {
							mr.eng.ScanRaw(pt.spec.Table, nil, nil, fn)
						}).ContentDigest()
					}
					start := p.Now()
					mr.refreshOnce(p)
					if p.Now() == start {
						t.Errorf("pass %d did not park", done)
					}
					for i, pt := range mr.tables {
						if got := pt.col.ContentDigest(); got != want[i] {
							t.Errorf("pass %d: %s diverged from the rescan taken as it began\n live    %s\n rescan  %s",
								done, pt.spec.Name, got, want[i])
						}
					}
				}
			})
			if err := s.RunTo(s.Env.Now() + sim.Time(10*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if done != passes {
				t.Fatalf("%d refresh passes checked, want %d", done, passes)
			}
		})
	}
}

// TestRecoveredProjectionsMatchRebuild is the crash variant: run the hybrid
// workload on a sharded-log bionic machine, crash cold, recover serially
// and in parallel (core.Boot), and prove the columnar projections rebuilt
// from either recovered row store are byte-identical — parallel shard
// replay changes nothing the analytics half can see.
func TestRecoveredProjectionsMatchRebuild(t *testing.T) {
	wl := smallYCSBMixed()
	pcfg := platform.HC2Scaled(2)
	pcfg.LogDevPerSocket = true

	s := core.Open(wl, 42, func(env *sim.Env) core.Engine {
		return core.NewBionic(env, pcfg, wl.Tables(), wl.Scheme(2*pcfg.Cores), core.AllOffloads(), 8)
	})
	defer s.Close()
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Run the mixed load for a fixed window, then crash cold: no drain, no
	// Close — staged log bytes die with the machine.
	s.Start(8, nil, nil)
	if err := s.RunTo(s.Env.Now() + sim.Time(6*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	img := s.Crash(meta)
	if len(img.Logs) != 2 {
		t.Fatalf("expected 2 log shards on a 2-socket sharded-log machine, got %d", len(img.Logs))
	}
	boot := func(parallel bool) map[uint16]*btree.Tree {
		trees, _, _, err := core.Boot(img, img.Logs, parallel, 0)
		if err != nil {
			t.Fatal(err)
		}
		return trees
	}
	serialTrees := boot(false)
	parTrees := boot(true)
	if d1, d2 := core.ContentDigest(serialTrees), core.ContentDigest(parTrees); d1 != d2 {
		t.Fatalf("serial and parallel replay diverged before projection: %s vs %s", d1, d2)
	}

	// Rebuild every projection from both recovered row stores and pin the
	// columnar content digests identical.
	env3 := sim.NewEnv()
	defer env3.Close()
	pl3 := platform.New(env3, platform.HC2())
	fromTrees := func(trees map[uint16]*btree.Tree, spec ProjSpec, name string) string {
		pt := newProjTable(pl3, ProjSpec{Table: spec.Table, Name: name, Key: spec.Key, Cols: spec.Cols})
		trees[spec.Table].Scan(nil, nil, nil, func(k, v []byte) bool {
			pt.apply(k, v)
			return true
		})
		if pt.col.Rows() == 0 {
			t.Errorf("%s: recovered projection is empty", name)
		}
		return pt.col.ContentDigest()
	}
	for i, spec := range wl.Specs() {
		ser := fromTrees(serialTrees, spec, fmt.Sprintf("ser%d", i))
		par := fromTrees(parTrees, spec, fmt.Sprintf("par%d", i))
		if ser != par {
			t.Errorf("%s: projection from serial-recovered store %s != parallel-recovered %s", spec.Name, ser, par)
		}
	}
}

// LastRun returns the most recently attached analytical run, for tests
// that inspect the mirror after core.Run returns. Each core.Run gets its
// own Mixed (bench.WorkloadSpec.Make), so this is that run's mirror.
func (m *Mixed) LastRun() *Run { return m.lastRun }

// Specs returns the projection specs.
func (m *Mixed) Specs() []ProjSpec { return m.specs }

// HW reports whether the run used the merge-fed hardware path.
func (mr *Run) HW() bool { return mr.hw }

// Projection returns the named live projection table, for tests.
func (mr *Run) Projection(name string) *columnar.Table { return mr.byName[name].col }

// Stats returns the cumulative scan statistics, for tests.
func (mr *Run) Stats() stats.ScanStats { return mr.st }

// BuildProjection builds a fresh projection of spec from the rows scan
// yields — the "rebuild from the row store" side of the equivalence tests.
func BuildProjection(pl *platform.Platform, spec ProjSpec, scan func(fn func(k, v []byte) bool)) *columnar.Table {
	pt := newProjTable(pl, spec)
	scan(func(k, v []byte) bool {
		pt.apply(k, v)
		return true
	})
	return pt.col
}
