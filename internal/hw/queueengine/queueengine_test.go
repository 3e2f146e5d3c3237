package queueengine

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

func TestEngineServesOps(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	e := New(pl, DefaultConfig())
	ops := 0
	for i := 0; i < 10; i++ {
		env.Spawn("op", func(p *sim.Proc) {
			e.Unit.Work(p, e.OpCycles())
			ops++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ops != 10 {
		t.Fatalf("ops=%d", ops)
	}
	// 10 ops, 4 slots, 3 cycles (~20ns) each: ~3 waves.
	if env.Now() > sim.Time(100*sim.Nanosecond) {
		t.Fatalf("queue ops took %v", env.Now())
	}
}

func TestOpCyclesConfigurable(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	e := New(pl, Config{Slots: 1, OpCycles: 30})
	if e.OpCycles() != 30 {
		t.Fatalf("op cycles %d", e.OpCycles())
	}
	env.Spawn("op", func(p *sim.Proc) { e.Unit.Work(p, e.OpCycles()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 30 * pl.Cfg.FPGACycle()
	if sim.Duration(env.Now()) != want {
		t.Fatalf("one op took %v, want %v", env.Now(), want)
	}
}
