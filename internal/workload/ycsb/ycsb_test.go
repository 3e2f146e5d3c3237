package ycsb

import (
	"fmt"
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

// TestZipfianBoundsAndSkew checks draws stay in range and the distribution
// is actually skewed: the hottest rank must appear far more often than a
// uniform draw would.
func TestZipfianBoundsAndSkew(t *testing.T) {
	const n = 1000
	const draws = 200000
	z := newZipfian(n, 0.99)
	r := sim.NewRand(1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		rank := z.Next(r)
		if rank >= n {
			t.Fatalf("draw %d out of range: %d", i, rank)
		}
		counts[rank]++
	}
	uniform := draws / n
	if counts[0] < 10*uniform {
		t.Errorf("rank 0 drawn %d times, expected heavy skew over uniform %d", counts[0], uniform)
	}
	// Ranks must be monotonically popular in aggregate: the top decile
	// should dominate the bottom decile.
	top, bottom := 0, 0
	for i := 0; i < n/10; i++ {
		top += counts[i]
		bottom += counts[n-1-i]
	}
	if top < 5*bottom {
		t.Errorf("top decile %d not dominating bottom decile %d", top, bottom)
	}
}

// TestScrambleSpreadsHotSet checks scrambling is a deterministic in-range
// permutation-like spread: same input same output, hot ranks land apart.
func TestScrambleSpreadsHotSet(t *testing.T) {
	const n = 100000
	seen := make(map[uint64]bool)
	for rank := uint64(0); rank < 10; rank++ {
		k := scramble(rank, n)
		if k >= n {
			t.Fatalf("scramble out of range: %d", k)
		}
		if k != scramble(rank, n) {
			t.Fatal("scramble not deterministic")
		}
		seen[k] = true
	}
	if len(seen) < 9 {
		t.Errorf("hot ranks collapse onto %d keys", len(seen))
	}
}

// TestConfigDefaults checks zero fields fill in and degenerate mixes fall
// back to 50/50.
func TestConfigDefaults(t *testing.T) {
	w := New(Config{})
	cfg := w.Config()
	if cfg.Records != 100000 || cfg.FieldSize != 100 || cfg.MaxScanLen != 100 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.ReadPct != 50 || cfg.UpdatePct != 50 {
		t.Fatalf("zero mix did not fall back to A: %+v", cfg)
	}
	if cfg.Theta != 0.99 {
		t.Fatalf("theta default not applied: %v", cfg.Theta)
	}
}

// TestMixDeterminismAndShares checks the same seed yields the same txn
// stream and the weights shape the draw shares.
func TestMixDeterminismAndShares(t *testing.T) {
	cfg := Config{Records: 1000, ReadPct: 40, UpdatePct: 30, ScanPct: 20, RMWPct: 10, MaxScanLen: 10}
	w := New(cfg)

	var first []string
	r := sim.NewRand(9)
	for i := 0; i < 200; i++ {
		name, _ := w.NextTxn(r)
		first = append(first, name)
	}
	r = sim.NewRand(9)
	for i := 0; i < 200; i++ {
		name, _ := w.NextTxn(r)
		if name != first[i] {
			t.Fatalf("draw %d differs across identical seeds: %s vs %s", i, name, first[i])
		}
	}

	counts := map[string]int{}
	r = sim.NewRand(10)
	const draws = 20000
	for i := 0; i < draws; i++ {
		name, _ := w.NextTxn(r)
		counts[name]++
	}
	for name, pct := range map[string]int{"Read": 40, "Update": 30, "Scan": 20, "ReadModifyWrite": 10} {
		got := float64(counts[name]) / draws * 100
		if got < float64(pct)-3 || got > float64(pct)+3 {
			t.Errorf("%s share %.1f%%, want ~%d%%", name, got, pct)
		}
	}
}

// TestPopulateLoadsDenseKeys checks population emits exactly Records rows
// with the dense key encoding the scan path depends on.
func TestPopulateLoadsDenseKeys(t *testing.T) {
	cfg := Config{Records: 500, FieldSize: 16, ReadPct: 100}
	w := New(cfg)
	seen := make(map[uint64]int)
	w.Populate(func(table uint16, key, val []byte) {
		if table != TUser {
			t.Fatalf("unexpected table %d", table)
		}
		if len(val) != 16 {
			t.Fatalf("value size %d, want 16", len(val))
		}
		seen[storage.DecodeUint64(key)]++
	}, sim.NewRand(4))
	if len(seen) != 500 {
		t.Fatalf("populated %d distinct keys, want 500", len(seen))
	}
	for i := uint64(0); i < 500; i++ {
		if seen[i] != 1 {
			t.Fatalf("key %d loaded %d times", i, seen[i])
		}
	}
}

// TestSchemeRoutesInRange checks routing and entity naming over the
// keyspace.
func TestSchemeRoutesInRange(t *testing.T) {
	w := New(Config{Records: 1000})
	s := w.Scheme(8)
	if s.Partitions != 8 {
		t.Fatalf("partitions = %d", s.Partitions)
	}
	hit := make([]bool, 8)
	for i := uint64(0); i < 1000; i++ {
		p := s.Route(TUser, Key(i))
		if p < 0 || p >= 8 {
			t.Fatalf("key %d routed to %d", i, p)
		}
		hit[p] = true
		if got, want := s.Entity(TUser, Key(i)).String(), fmt.Sprintf("u%d", i); got != want {
			t.Fatalf("key %d has entity %q, want %q", i, got, want)
		}
	}
	for p, ok := range hit {
		if !ok {
			t.Errorf("partition %d never routed", p)
		}
	}
}

// Config returns the scale and mix parameters.
func (w *Workload) Config() Config { return w.cfg }

// Key returns the primary key of record i, a fresh slice the caller owns.
func Key(i uint64) []byte { return keyIn(nil, i) }
