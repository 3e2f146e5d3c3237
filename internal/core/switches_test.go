package core_test

import (
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// TestSwitchesPerEvent pins how chatty the engines are toward the coroutine
// layer: the share of kernel events that resume a process instead of running
// inline in the dispatch loop. The three machines, engines, scales and
// client counts are the repository benchmark's (benchmark/workloads.go) with
// a tenth of its simulated window. Both counts are exact and repeat on every
// host, so a ceiling that starts failing means a blocking chain somewhere
// was split back into one park per step. Before kernel scripts the ratios
// were 0.93, 0.94 and 0.70.
func TestSwitchesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("populates three benchmark-scale databases")
	}
	for _, c := range []struct {
		name      string
		terminals int
		measure   sim.Duration
		ceiling   float64
		build     func() (core.Workload, func(*sim.Env) core.Engine)
	}{
		{"tatp-bionic", 64, 40 * sim.Millisecond, 0.45, func() (core.Workload, func(*sim.Env) core.Engine) {
			wl := tatp.New(tatp.Config{Subscribers: 100000})
			return wl, func(env *sim.Env) core.Engine {
				return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
			}
		}},
		{"tpcc-conv", 64, 40 * sim.Millisecond, 0.70, func() (core.Workload, func(*sim.Env) core.Engine) {
			wl := tpcc.New(tpcc.DefaultConfig())
			return wl, func(env *sim.Env) core.Engine {
				return core.NewConventional(env, platform.HC2(), wl.Tables())
			}
		}},
		{"ycsb-dora-4s", 128, 20 * sim.Millisecond, 0.60, func() (core.Workload, func(*sim.Env) core.Engine) {
			cfg := ycsb.WorkloadA()
			cfg.Records, cfg.FieldSize, cfg.Theta = 400000, 100, 0.7
			wl := ycsb.New(cfg)
			return wl, func(env *sim.Env) core.Engine {
				return core.NewDORA(env, platform.HC2ScaledSharded(4), wl.Tables(), wl.Scheme(32))
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			wl, mk := c.build()
			res, err := core.Run(core.RunConfig{
				Terminals: c.terminals, Warmup: 20 * sim.Millisecond, Measure: c.measure, Seed: 42,
			}, wl, mk)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(res.Switches) / float64(res.Events)
			t.Logf("%d resumes / %d events = %.3f", res.Switches, res.Events, ratio)
			if res.Switches == 0 || ratio > c.ceiling {
				t.Errorf("resumes per event = %.3f (%d / %d), want in (0, %.2f]",
					ratio, res.Switches, res.Events, c.ceiling)
			}
		})
	}
}
