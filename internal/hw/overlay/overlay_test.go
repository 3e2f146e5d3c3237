package overlay

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
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
// its result in the previous call's storage as the merge daemon does. Every
// third key is longer than storage.KeyInline, so inline and spilled keys
// are ordered against each other.
func TestSmallestDirty(t *testing.T) {
	r := sim.NewRand(11)
	dirty := make(map[storage.Key]struct{})
	set := make(map[string]bool)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%06d", r.Intn(1000000))
		if i%3 == 0 {
			k += strings.Repeat("~", storage.KeyInline)
		}
		dirty[storage.KeyOf([]byte(k))] = struct{}{}
		set[k] = true
	}
	all := make([]string, 0, len(set))
	for k := range set {
		all = append(all, k)
	}
	sort.Strings(all)
	var scratch []storage.Key
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
			if string(got[i].Bytes()) != want[i] {
				t.Fatalf("budget %d: key %d is %q, want %q", budget, i, got[i].Bytes(), want[i])
			}
		}
	}
}

// TestDirtySetMatchesModel drives random puts, deletes and re-inserts of
// short, 40-byte and spilled keys into two tables while merge passes run
// under a budget that binds, and checks the store against a model whose
// dirty set is a map[string]struct{}: each pass merges the same keys in the
// same order with the same values, and DirtyRows agrees after every
// operation.
func TestDirtySetMatchesModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeInterval = 20 * sim.Microsecond
	cfg.MergeBatchRows = 7
	env, pl, s := fixture(cfg)
	type merge struct {
		table    uint16
		key, val string
	}
	rows := map[uint16]map[string]string{1: {}, 2: {}}
	dirty := map[uint16]map[string]struct{}{1: {}, 2: {}}
	var expect []merge // the model's selection for the pass in progress
	inPass, passes, bound := false, 0, 0
	failed := false // processes report with t.Errorf; the client stops on the first
	fail := func(format string, args ...any) {
		if !failed {
			t.Errorf(format, args...)
		}
		failed = true
	}
	// modelPass is the merge pass the model expects, taken at the instant
	// the store selects its keys: nothing parks between that and the pass's
	// last MergeFn call.
	modelPass := func() {
		budget := cfg.MergeBatchRows
		for _, id := range []uint16{1, 2} {
			keys := make([]string, 0, len(dirty[id]))
			for k := range dirty[id] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if len(keys) > budget {
				keys = keys[:budget]
				bound++
			}
			for _, k := range keys {
				expect = append(expect, merge{id, k, rows[id][k]})
				delete(dirty[id], k)
			}
			budget -= len(keys)
		}
	}
	for _, id := range []uint16{1, 2} {
		id := id
		s.CreateTable(id, 4).MergeFn = func(k, v []byte) {
			if !inPass {
				inPass = true
				passes++
				modelPass()
			}
			got := merge{id, string(k), string(v)}
			if len(expect) == 0 || expect[0] != got {
				fail("pass %d merged %q, model expects %q", passes, got, expect)
				return
			}
			expect = expect[1:]
		}
	}
	s.AfterMerge = func(*sim.Proc) {
		if len(expect) != 0 {
			fail("pass %d left %d expected merges: %q", passes, len(expect), expect)
		}
		if !inPass && len(dirty[1])+len(dirty[2]) != 0 {
			fail("an empty pass with %d rows dirty in the model", len(dirty[1])+len(dirty[2]))
		}
		inPass, expect = false, nil
	}
	keyOf := func(r *sim.Rand) []byte {
		n := r.Intn(60)
		switch r.Intn(3) {
		case 0:
			return storage.Uint64Key(uint64(n))
		case 1:
			return []byte(fmt.Sprintf("%040d", n)) // exactly KeyInline bytes
		}
		return []byte(fmt.Sprintf("%050d", n)) // spilled
	}
	env.Spawn("client", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		r := sim.NewRand(29)
		for i := 0; i < 3000 && !failed; i++ {
			id := uint16(1 + r.Intn(2))
			k := keyOf(r)
			if r.Intn(4) == 0 {
				_, ok := s.Delete(task, id, k)
				if _, had := rows[id][string(k)]; ok != had {
					fail("op %d: Delete found %v, model %v", i, ok, had)
				}
				delete(rows[id], string(k))
				delete(dirty[id], string(k))
			} else {
				v := fmt.Sprintf("v%d", i)
				s.Put(task, id, k, []byte(v))
				rows[id][string(k)] = v
				dirty[id][string(k)] = struct{}{}
			}
			if got, want := s.DirtyRows(), len(dirty[1])+len(dirty[2]); got != want {
				fail("op %d: DirtyRows %d, model %d", i, got, want)
			}
			task.Flush()
			if r.Intn(50) == 0 {
				p.Wait(sim.Duration(r.Intn(12)) * sim.Millisecond) // let passes run
			} else {
				p.Wait(sim.Duration(1+r.Intn(30)) * sim.Microsecond)
			}
		}
		p.Wait(200 * sim.Millisecond) // drain
		if s.DirtyRows() != 0 || len(dirty[1])+len(dirty[2]) != 0 {
			fail("after the drain: DirtyRows %d, model %d", s.DirtyRows(), len(dirty[1])+len(dirty[2]))
		}
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if failed {
		return
	}
	if passes < 20 || bound == 0 {
		t.Fatalf("%d non-empty passes, %d with the budget binding: the test does not exercise the merge", passes, bound)
	}
	t.Logf("%d non-empty passes, %d tables cut by the budget, %d rows merged", passes, bound, s.Merged())
}

// TestPutRedirtyAllocatesNothing re-dirties merged rows whose keys are
// storage.KeyInline bytes long: once the dirty set, the write workers and
// the merge scratch have their steady size, a Put allocates nothing.
func TestPutRedirtyAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeInterval = 50 * sim.Microsecond
	env, pl, s := fixture(cfg)
	s.CreateTable(1, 64)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%040d", i))
		s.LoadRaw(1, keys[i], row(i))
	}
	val := row(0)
	var allocs float64
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		cycle := func() {
			for _, k := range keys {
				s.Put(task, 1, k, val)
				task.Flush()
			}
			p.Wait(20 * sim.Millisecond) // a merge pass empties the dirty set
			if s.DirtyRows() != 0 {
				t.Errorf("%d rows still dirty after the merge window", s.DirtyRows())
			}
		}
		cycle()
		allocs = testing.AllocsPerRun(5, cycle)
		s.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Merged() == 0 {
		t.Fatal("nothing merged")
	}
	if allocs != 0 {
		t.Errorf("%v allocations per %d re-dirtying puts and a merge pass, want 0", allocs, len(keys))
	}
}

// Rows returns the row count across tables.
func (s *Store) Rows() int {
	n := 0
	for _, tbl := range s.tables {
		n += tbl.Tree.Size()
	}
	return n
}
