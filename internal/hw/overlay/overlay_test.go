package overlay

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func fixture(cfg Config) (*sim.Env, *platform.Platform, *Store) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	probe := treeprobe.New(pl, treeprobe.DefaultConfig())
	s := New(pl, probe, cfg)
	return env, pl, s
}

func key(i int) []byte { return storage.Uint64Key(uint64(i)) }
func row(i int) []byte { return []byte(fmt.Sprintf("row-%d", i)) }

func TestPutGetDeleteRoundTrip(t *testing.T) {
	env, pl, s := fixture(DefaultConfig())
	s.CreateTable(1, 64)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 500; i++ {
			s.Put(task, 1, key(i), row(i))
		}
		for i := 0; i < 500; i++ {
			v, ok := s.Get(task, 1, key(i))
			if !ok || !bytes.Equal(v, row(i)) {
				t.Errorf("key %d: %q %v", i, v, ok)
				return
			}
		}
		if v, ok := s.Delete(task, 1, key(7)); !ok || !bytes.Equal(v, row(7)) {
			t.Error("delete failed")
		}
		if _, ok := s.Get(task, 1, key(7)); ok {
			t.Error("deleted key still present")
		}
		task.Flush()
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 499 {
		t.Fatalf("rows=%d", s.Rows())
	}
}

func TestDirtyTrackingAndMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeInterval = 50 * sim.Microsecond
	env, pl, s := fixture(cfg)
	tbl := s.CreateTable(1, 64)
	merged := map[string]string{}
	tbl.MergeFn = func(k, v []byte) { merged[string(k)] = string(v) }
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 100; i++ {
			s.Put(task, 1, key(i), row(i))
		}
		if s.DirtyRows() == 0 {
			t.Error("no dirty rows tracked")
		}
		task.Flush()
		// Merge passes include database-file writes (5ms seeks), so allow
		// a few of them.
		p.Wait(20 * sim.Millisecond)
		if s.DirtyRows() != 0 {
			t.Errorf("dirty=%d after merge window", s.DirtyRows())
		}
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(merged) != 100 {
		t.Fatalf("merged %d rows", len(merged))
	}
	if merged[string(key(5))] != string(row(5)) {
		t.Fatal("merged wrong value")
	}
	if s.Merged() != 100 {
		t.Fatalf("Merged()=%d", s.Merged())
	}
}

func TestEvictionAndFaultPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityRows = 200
	cfg.EvictBatch = 4
	env, pl, s := fixture(cfg)
	s.CreateTable(1, 16) // small order: many leaves
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 600; i++ {
			s.Put(task, 1, key(i), row(i))
		}
		if s.Evictions() == 0 {
			t.Error("no evictions despite exceeding capacity")
		}
		// Every row must still be readable; evicted leaves fault in.
		for i := 0; i < 600; i++ {
			v, ok := s.Get(task, 1, key(i))
			if !ok || !bytes.Equal(v, row(i)) {
				t.Errorf("key %d unreadable after eviction", i)
				return
			}
		}
		if s.Faults() == 0 {
			t.Error("reads of evicted leaves did not fault")
		}
		task.Flush()
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCostsDatabaseFileRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityRows = 100
	cfg.EvictBatch = 16
	env, pl, s := fixture(cfg)
	s.CreateTable(1, 16)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 400; i++ {
			s.Put(task, 1, key(i), row(i))
		}
		task.Flush()
		diskReadsBefore := pl.Disk.Ops()
		start := p.Now()
		// Probe keys until one faults (cold leaf).
		faultsBefore := s.Faults()
		for i := 0; i < 400 && s.Faults() == faultsBefore; i++ {
			s.Get(task, 1, key(i))
			task.Flush()
		}
		if s.Faults() == faultsBefore {
			t.Error("no faulting probe found")
			return
		}
		if pl.Disk.Ops() == diskReadsBefore {
			t.Error("fault did not read database files")
		}
		if p.Now().Sub(start) < 5*sim.Millisecond {
			t.Errorf("faulting path took %v, expected a disk seek", p.Now().Sub(start))
		}
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRangeStreamsRows(t *testing.T) {
	env, pl, s := fixture(DefaultConfig())
	s.CreateTable(1, 32)
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 300; i++ {
			s.Put(task, 1, key(i), row(i))
		}
		var got []int
		s.ScanRange(task, 1, key(100), key(120), func(k, v []byte) bool {
			got = append(got, int(storage.DecodeUint64(k)))
			return true
		})
		if len(got) != 20 || got[0] != 100 || got[19] != 119 {
			t.Errorf("scan got %v", got)
		}
		task.Flush()
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesChargeBpoolComponent(t *testing.T) {
	env, pl, s := fixture(DefaultConfig())
	s.CreateTable(1, 64)
	bd := &stats.Breakdown{}
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		s.Put(task, 1, key(1), row(1))
		task.Flush()
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(stats.CompBpool) == 0 {
		t.Fatal("overlay write charged nothing to Bpool")
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	env, _, s := fixture(DefaultConfig())
	s.CreateTable(1, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		_ = env
	}()
	s.CreateTable(1, 64)
}

// TestSmallestDirty checks the bounded selection matches a full sort's
// prefix for budgets below, at, and above the set size, each call building
// its result in the previous call's storage as the merge daemon does.
func TestSmallestDirty(t *testing.T) {
	r := sim.NewRand(11)
	dirty := make(map[string]struct{})
	for i := 0; i < 500; i++ {
		dirty[fmt.Sprintf("k%06d", r.Intn(1000000))] = struct{}{}
	}
	all := make([]string, 0, len(dirty))
	for k := range dirty {
		all = append(all, k)
	}
	sort.Strings(all)
	var scratch []string
	for _, budget := range []int{0, 1, 7, 100, len(all), len(all) + 50, 3} {
		got := smallestDirty(dirty, budget, scratch[:0])
		scratch = got
		want := all
		if budget < len(all) {
			want = all[:budget]
		}
		if budget <= 0 {
			want = nil
		}
		if len(got) != len(want) {
			t.Fatalf("budget %d: got %d keys, want %d", budget, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("budget %d: key %d is %q, want %q", budget, i, got[i], want[i])
			}
		}
	}
}
