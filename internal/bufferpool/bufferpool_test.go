package bufferpool

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func fixture(frames int) (*sim.Env, *platform.Platform, *Pool) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	bp := New(pl, pl.Disk, DefaultConfig(frames, pl.Cfg.PageSize))
	return env, pl, bp
}

func run(t *testing.T, env *sim.Env) {
	t.Helper()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFixMissThenHit(t *testing.T) {
	env, pl, bp := fixture(4)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		if hit := bp.Fix(task, 1); hit {
			t.Error("cold fix reported hit")
		}
		bp.Unfix(task, 1, false)
		if hit := bp.Fix(task, 1); !hit {
			t.Error("warm fix reported miss")
		}
		bp.Unfix(task, 1, false)
		task.Flush()
	})
	run(t, env)
}

func TestMissChargesDiskLatency(t *testing.T) {
	env, pl, bp := fixture(4)
	var took sim.Duration
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		start := p.Now()
		bp.Fix(task, 1)
		task.Flush()
		took = p.Now().Sub(start)
		bp.Unfix(task, 1, false)
	})
	run(t, env)
	if took < 5*sim.Millisecond {
		t.Fatalf("miss took %v, want >= disk seek", took)
	}
}

func TestEvictionPrefersUnreferenced(t *testing.T) {
	env, pl, bp := fixture(2)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		bp.Fix(task, 1)
		bp.Unfix(task, 1, false)
		bp.Fix(task, 2)
		bp.Unfix(task, 2, false)
		bp.Fix(task, 3) // evicts one of 1/2
		bp.Unfix(task, 3, false)
		task.Flush()
	})
	run(t, env)
	if bp.Resident(1) && bp.Resident(2) {
		t.Fatal("no eviction happened")
	}
	if !bp.Resident(3) {
		t.Fatal("newly fixed page not resident")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	env, pl, bp := fixture(1)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		bp.Fix(task, 1)
		bp.Unfix(task, 1, true) // dirty
		bp.Fix(task, 2)         // must write back page 1
		bp.Unfix(task, 2, false)
		task.Flush()
	})
	run(t, env)
	// Two page reads and the write-back of page 1.
	if got, want := pl.Disk.Bytes(), int64(3*pl.Cfg.PageSize); got != want {
		t.Fatalf("disk moved %d bytes, want %d: two reads and one write-back", got, want)
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	env, pl, bp := fixture(2)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		bp.Fix(task, 1) // pinned throughout
		bp.Fix(task, 2)
		bp.Unfix(task, 2, false)
		bp.Fix(task, 3) // must evict 2, not pinned 1
		bp.Unfix(task, 3, false)
		bp.Unfix(task, 1, false)
		task.Flush()
	})
	run(t, env)
	if !bp.Resident(1) {
		t.Fatal("pinned page was evicted")
	}
	if bp.Resident(2) {
		t.Fatal("unpinned page survived over pinned")
	}
}

func TestAllPinnedPanics(t *testing.T) {
	env, pl, bp := fixture(1)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		bp.Fix(task, 1)
		bp.Fix(task, 2) // no evictable frame
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected panic error when all frames pinned")
	}
}

func TestUnfixUnpinnedPanics(t *testing.T) {
	env, pl, bp := fixture(2)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		bp.Unfix(task, 99, false)
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected panic error for bad unfix")
	}
}

func TestFixChargesBpoolComponent(t *testing.T) {
	env, pl, bp := fixture(4)
	bd := &stats.Breakdown{}
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		bp.Fix(task, 1)
		bp.Unfix(task, 1, false)
		task.Flush()
	})
	run(t, env)
	if bd.Get(stats.CompBpool) == 0 {
		t.Fatal("no Bpool time charged")
	}
}

func TestWorkingSetBeyondPoolThrashes(t *testing.T) {
	env, pl, bp := fixture(8)
	hits := 0
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for round := 0; round < 3; round++ {
			for id := storage.PageID(1); id <= 16; id++ {
				if bp.Fix(task, id) {
					hits++
				}
				bp.Unfix(task, id, false)
			}
		}
		task.Flush()
	})
	run(t, env)
	if hits > 3*16/2 {
		t.Fatalf("%d hits in %d fixes for working set 2x pool size", hits, 3*16)
	}
}

// Resident reports whether a page occupies a frame (no cost charged).
func (bp *Pool) Resident(id storage.PageID) bool { return bp.lookup(id) != nil }
